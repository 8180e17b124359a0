package experiments

import (
	"strings"
	"testing"
)

func TestKernRoofSweep(t *testing.T) {
	r, err := KernRoof(3, 8, 3, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	// 2 meshes x 1 worker count x 2 kernels.
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows want 4", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.StepsPerSec <= 0 || row.Gflops <= 0 {
			t.Errorf("%s %v: empty rates %+v", row.Mesh, row.Kernel, row)
		}
		if row.SolidAI <= 0 {
			t.Errorf("%s %v: no solid arithmetic intensity", row.Mesh, row.Kernel)
		}
		if row.Mesh == "globe-dbl" && row.FluidAI <= 0 {
			t.Errorf("globe run missing fluid intensity")
		}
		// Above 100% is legitimate — the analytic AI counts streamed
		// traffic per stage, and cache-resident blocks beat it — but
		// far above means the counters or timers broke.
		if row.Force.PctOfRoofline <= 0 || row.Force.PctOfRoofline > 500 {
			t.Errorf("%s %v: roofline fraction %.1f%% implausible",
				row.Mesh, row.Kernel, row.Force.PctOfRoofline)
		}
		// The counted AI is variant-independent (same analytic model),
		// so rows of one mesh must share it.
		if row.Mesh == r.Rows[0].Mesh && row.SolidAI != r.Rows[0].SolidAI {
			t.Errorf("solid AI varies across kernels: %v vs %v", row.SolidAI, r.Rows[0].SolidAI)
		}
	}
	s := r.String()
	for _, want := range []string{"KERNROOF", "vec4", "%peak", "local-measured"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}
