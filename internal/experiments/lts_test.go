package experiments

import (
	"strings"
	"testing"

	"specglobe/internal/perfmodel"
)

// The LTS ablation must produce the three variants per configuration,
// realize a multi-rate clustering on the doubled PREM mesh with a
// theoretical reduction above 1.3x, and report a positive realized
// steps-of-finest-level/sec for every row.
func TestLTSAblation(t *testing.T) {
	r, err := LTSAblation([][2]int{{8, 1}}, []float64{5200e3, 3000e3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d, want 3 (uniform, doubled, doubled+LTS)", len(r.Rows))
	}
	uni, dbl, lts := r.Rows[0], r.Rows[1], r.Rows[2]
	if uni.Variant != "uniform" || dbl.Variant != "doubled" || lts.Variant != "doubled+LTS" {
		t.Fatalf("variant order: %s/%s/%s", uni.Variant, dbl.Variant, lts.Variant)
	}
	if dbl.Elements >= uni.Elements {
		t.Errorf("doubling did not reduce elements: %d vs %d", dbl.Elements, uni.Elements)
	}
	if len(lts.RateCounts) < 2 {
		t.Fatalf("doubled PREM clustering is single-rate: %v", lts.RateCounts)
	}
	if lts.TheoreticalReduction <= 1.3 {
		t.Errorf("theoretical reduction %.2f, want > 1.3", lts.TheoreticalReduction)
	}
	if lts.Speedup <= 0 {
		t.Errorf("no realized speedup recorded: %v", lts.Speedup)
	}
	for _, row := range r.Rows {
		if row.StepsFinestPerSec <= 0 {
			t.Errorf("%s: no steps-of-finest/sec measured", row.Variant)
		}
	}
	s := r.String()
	for _, want := range []string{"LTS", "finest-st/s", "theory", "doubled+LTS"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// The joint sweep must cover machines x workers x doubling and account
// virtual comm in every cell.
func TestOverlapJoint(t *testing.T) {
	// nex 8 is the smallest resolution that admits the standard two
	// doubling levels.
	r, err := OverlapJoint(8, 1, 3, []int{1, 2}, []float64{5200e3, 3000e3})
	if err != nil {
		t.Fatal(err)
	}
	want := len(perfmodel.Catalog()) * 2 * 2
	if len(r.Rows) != want {
		t.Fatalf("rows %d, want %d", len(r.Rows), want)
	}
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if row.Exposed <= 0 && row.Hidden <= 0 {
			t.Errorf("%s w%d doubled=%v: no virtual comm accounted",
				row.Machine, row.Workers, row.Doubled)
		}
		if row.StepsPerSec <= 0 {
			t.Errorf("%s w%d doubled=%v: no throughput measured",
				row.Machine, row.Workers, row.Doubled)
		}
		seen[row.Machine] = true
	}
	if len(seen) != len(perfmodel.Catalog()) {
		t.Errorf("machines covered %d, want %d", len(seen), len(perfmodel.Catalog()))
	}
	if !strings.Contains(r.String(), "OVERLAP/joint") {
		t.Error("report missing OVERLAP/joint header")
	}
}
