package experiments

import (
	"strings"
	"testing"
)

// The one duration comparison of the package: the vectorized kernel
// must not lose badly to the plain loops, a generous band around the
// paper's +15-20% on bestOf's readings.
func TestKernelsComparison(t *testing.T) {
	r, err := Kernels(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []Timing{r.Vec4, r.Scalar, r.ScalarBlock, r.BlasBlock} {
		if tm.Best <= 0 || tm.Runs != rounds {
			t.Fatalf("timing %+v, want a positive best of %d", tm, rounds)
		}
	}
	t.Logf("vec4 %v, scalar %v: gain %.1f%%", r.Vec4, r.Scalar, r.Vec4GainPct)
	if r.Vec4GainPct < -15 {
		t.Errorf("vec4 gain %.1f%%: vectorized kernel much slower than plain loops", r.Vec4GainPct)
	}
	if !strings.Contains(r.String(), "SSE20") {
		t.Error("missing header")
	}
}

func TestRenumberingComparison(t *testing.T) {
	r, err := Renumbering(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's point: ordering barely matters (<= ~5%). Short 4-step
	// runs cannot resolve that on a shared host, so it is logged, not
	// asserted.
	t.Logf("natural %v, RCM %v: wall gain %.1f%%", r.Natural, r.RCM, r.RCMGainPct)
	// The locality proxy ranks the orderings exactly where the wall
	// clock cannot: scrambled order has worse strides than RCM.
	if r.StrideRandom <= r.StrideRCM {
		t.Errorf("scrambled stride %.0f not worse than RCM %.0f", r.StrideRandom, r.StrideRCM)
	}
	if !strings.Contains(r.String(), "CM5") {
		t.Error("missing header")
	}
}

func TestStationLocationComparison(t *testing.T) {
	r, err := StationLocation(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	// The brute-force nonlinear search examines every crust/mantle
	// element of every rank per station, the analytic fast path one.
	if r.FastExam != r.NStations {
		t.Errorf("fast path examined %d elements for %d stations", r.FastExam, r.NStations)
	}
	if r.NonlinearExam < 10*r.FastExam {
		t.Errorf("nonlinear search examined %d elements, fast path %d: want at least 10x", r.NonlinearExam, r.FastExam)
	}
	t.Logf("wall: nonlinear %v, fast %v", r.Nonlinear, r.Fast)
	// Nonlinear residual is sub-meter; the snapped residual is bounded
	// by the grid spacing at NEX=4 (elements ~2500 km).
	if r.NonlinearErr > 10 {
		t.Errorf("nonlinear residual %.2f m", r.NonlinearErr)
	}
	if r.SnapErr <= r.NonlinearErr {
		t.Error("snap residual should exceed the Newton residual")
	}
	if !strings.Contains(r.String(), "STALOC") {
		t.Error("missing header")
	}
}

func TestMeshResolutionComparison(t *testing.T) {
	r, err := MeshResolution([][2]int{{8, 1}}, []float64{5200e3, 3000e3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows, want uniform/manual/derived", len(r.Rows))
	}
	uni, manual, derived := r.Rows[0], r.Rows[1], r.Rows[2]
	if uni.Schedule != "uniform" || manual.Schedule != "manual" || derived.Schedule != "derived" {
		t.Fatalf("row order %s/%s/%s", uni.Schedule, manual.Schedule, derived.Schedule)
	}
	// The derived schedule must coarsen at least as a sanity floor
	// (fewer elements and halo points than uniform) while preserving
	// the realized minimum resolution of the uniform mesh.
	if derived.Elements >= uni.Elements {
		t.Errorf("derived %d elements not below uniform %d", derived.Elements, uni.Elements)
	}
	if derived.HaloPoints >= uni.HaloPoints {
		t.Errorf("derived %d halo points not below uniform %d", derived.HaloPoints, uni.HaloPoints)
	}
	if derived.MinPts < uni.MinPts-1e-9 {
		t.Errorf("derived min pts %.3f below uniform %.3f", derived.MinPts, uni.MinPts)
	}
	// Derived radii come from the profile, not the manual list, and the
	// budget holds on the built mesh.
	if len(derived.Doublings) == 0 {
		t.Error("derived row carries no radii")
	}
	if derived.MinPts < r.Budget {
		t.Errorf("derived min pts %.2f below the %.0f budget", derived.MinPts, r.Budget)
	}
	if !strings.Contains(r.String(), "MESHRES") {
		t.Error("missing header")
	}
}
