package experiments

import (
	"strings"
	"testing"

	"specglobe/internal/perfmodel"
)

// The joint sweep must cover machines x doubling and account virtual
// comm in every cell.
func TestOverlapJoint(t *testing.T) {
	// nex 8 is the smallest resolution that admits the standard two
	// doubling levels.
	r, err := OverlapJoint(8, 1, 3, []float64{5200e3, 3000e3})
	if err != nil {
		t.Fatal(err)
	}
	want := len(perfmodel.Catalog()) * 2
	if len(r.Rows) != want {
		t.Fatalf("rows %d, want %d", len(r.Rows), want)
	}
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if row.Exposed <= 0 && row.Hidden <= 0 {
			t.Errorf("%s doubled=%v: no virtual comm accounted", row.Machine, row.Doubled)
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
