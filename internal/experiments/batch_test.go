package experiments

import (
	"strings"
	"testing"
)

// The BATCH ablation must produce one vec4 row per (mesh, S), with the
// S=1 row its own baseline and the counted solid intensity rising with
// S as the static bytes are amortized.
func TestBatchAblation(t *testing.T) {
	sizes := []int{1, 2}
	r, err := BatchAblation(3, 8, 2, sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	meshes := []string{"box", "globe-dbl"}
	if len(r.Rows) != len(meshes)*len(sizes) {
		t.Fatalf("%d rows, want %d", len(r.Rows), len(meshes)*len(sizes))
	}
	for i, row := range r.Rows {
		mesh, s := meshes[i/len(sizes)], sizes[i%len(sizes)]
		if row.Mesh != mesh || row.Sources != s {
			t.Fatalf("row %d is (%s, S=%d), want (%s, S=%d)", i, row.Mesh, row.Sources, mesh, s)
		}
		if row.SourceStepsPerSec <= 0 {
			t.Errorf("%s S=%d: no source-steps/s measured", row.Mesh, row.Sources)
		}
		if s == 1 && row.Speedup != 1 {
			t.Errorf("%s: S=1 speedup %v, want exactly 1", row.Mesh, row.Speedup)
		}
		// The intensity comes from the analytic counters, so it is
		// deterministic and the comparison can be strict.
		if s > 1 && row.SolidAI <= r.Rows[i-1].SolidAI {
			t.Errorf("%s: solid AI %.4f at S=%d not above %.4f at S=%d",
				row.Mesh, row.SolidAI, s, r.Rows[i-1].SolidAI, r.Rows[i-1].Sources)
		}
	}
	if !strings.Contains(r.String(), "BATCH") {
		t.Error("missing header")
	}
}
