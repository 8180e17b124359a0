package meshfem

import (
	"math"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

// The derived PREM schedule at NEX 8 must land within one layer
// boundary (one local lateral element size) of the hand-tuned
// {5200, 3000} km radii the MESHDBL ablation uses, with monotone
// descending radii.
func TestPlanDoublingsNearHandTunedPREM(t *testing.T) {
	prem := earthmodel.NewPREM()
	derived, err := PlanDoublings(prem, 8, 1, 0, AutoDoubling{})
	if err != nil {
		t.Fatal(err)
	}
	hand := []float64{5200e3, 3000e3}
	if len(derived) != len(hand) {
		t.Fatalf("derived %v: want %d radii like the hand-tuned %v", derived, len(hand), hand)
	}
	nex := 8
	for i, d := range derived {
		if i > 0 && d >= derived[i-1] {
			t.Fatalf("derived radii not monotone descending: %v", derived)
		}
		// One layer boundary: the local lateral element size at the
		// hand-tuned radius and that level's resolution.
		layer := lateralSize(hand[i], nex)
		if math.Abs(d-hand[i]) > layer {
			t.Errorf("derived radius %d = %.0f km more than one layer (%.0f km) from hand-tuned %.0f km",
				i, d/1e3, layer/1e3, hand[i]/1e3)
		}
		nex /= 2
	}
}

// The planner must respect the conforming-template divisibility rules
// validateDoublings enforces: per-slice fine counts divisible by 4 and
// even halved chunk-side counts. At NEX 4 / NPROC 1 only one doubling
// is possible (the second level would leave per-slice 2); at NEX 8 /
// NPROC 2 likewise.
func TestPlanDoublingsRespectsDivisibility(t *testing.T) {
	prem := earthmodel.NewPREM()
	for _, tc := range []struct {
		nex, nproc, maxDbl int
	}{
		{4, 1, 1}, {8, 2, 1}, {8, 1, 2}, {16, 2, 2},
	} {
		d, err := PlanDoublings(prem, tc.nex, tc.nproc, 0, AutoDoubling{})
		if err != nil {
			t.Fatalf("nex %d nproc %d: %v", tc.nex, tc.nproc, err)
		}
		if len(d) > tc.maxDbl {
			t.Errorf("nex %d nproc %d: %d doublings %v, divisibility allows at most %d",
				tc.nex, tc.nproc, len(d), d, tc.maxDbl)
		}
		// Whatever the planner emits must pass the same validation as a
		// hand-typed schedule and build a valid globe.
		if _, err := Build(Config{NexXi: tc.nex, NProcXi: tc.nproc, Model: prem, Doublings: d}); err != nil {
			t.Errorf("nex %d nproc %d: derived schedule %v rejected by Build: %v", tc.nex, tc.nproc, d, err)
		}
	}
}

// An unresolvable configuration must error, not emit a silent
// under-resolved schedule: a tiny NEX cannot meet the points budget at
// a short target period.
func TestPlanDoublingsRejectsUnderResolved(t *testing.T) {
	prem := earthmodel.NewPREM()
	if _, err := PlanDoublings(prem, 8, 1, 0, AutoDoubling{TargetPeriodS: 50}); err == nil {
		t.Error("NEX 8 at 50 s accepted (needs ~20x the lateral resolution)")
	}
	if _, err := PlanDoublings(nil, 8, 1, 0, AutoDoubling{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := PlanDoublings(prem, 8, 3, 0, AutoDoubling{}); err == nil {
		t.Error("NEX not divisible by NPROC accepted")
	}
}

// Build with AutoDoubling (and no explicit radii) must produce a valid
// doubled mesh whose realized points-per-wavelength meets the budget on
// every layer, and record the derived schedule in Cfg.Doublings.
// Explicit Doublings win over AutoDoubling; on that mesh the layer
// table's dt minimum equals the exhaustive per-element audit, sits at or
// above the conservative mesh-wide StableDt, and the coarsened deep
// layers show real dt headroom over the governing layer.
func TestBuildAutoDoublingMeetsBudget(t *testing.T) {
	prem := earthmodel.NewPREM()
	auto := AutoDoubling{} // paper-rule period, 5 pts/wavelength
	g, err := Build(Config{NexXi: 8, NProcXi: 1, Model: prem, AutoDoubling: &auto})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cfg.Doublings) == 0 {
		t.Fatal("derived schedule not recorded in Cfg.Doublings")
	}
	uni := buildSmall(t, 8, 1, prem)
	if du, dd := uni.TotalElements(), g.TotalElements(); dd >= du {
		t.Errorf("auto doubling did not reduce elements: %d uniform vs %d derived", du, dd)
	}

	resolved := auto.Resolved(8)
	budget := resolved.PointsPerWavelength
	period := resolved.TargetPeriodS
	layers := g.LayerAudits(period, mesh.Courant)
	for _, la := range layers {
		if la.MinPts < budget {
			t.Errorf("layer %v [%.0f, %.0f] km (nex %d, dbl %v, cube %v): %.2f pts/wavelength below budget %.1f",
				la.Region, la.R0/1e3, la.R1/1e3, la.NexXi, la.Doubling, la.Cube, la.MinPts, budget)
		}
	}
	// Coarsening must not lower the realized global minimum: the
	// governing worst element stays in the fine surface layers.
	rs := mesh.ComputeResolutionStats(g.Locals, period)
	urs := mesh.ComputeResolutionStats(uni.Locals, period)
	if rs.MinPts < urs.MinPts-1e-9 {
		t.Errorf("derived mesh min %.3f pts below the uniform mesh's %.3f", rs.MinPts, urs.MinPts)
	}
	// The layer table's global minimum agrees with the element audit.
	layerMin := math.Inf(1)
	for _, la := range layers {
		layerMin = min(layerMin, la.MinPts)
	}
	if math.Abs(layerMin-rs.MinPts) > 1e-9 {
		t.Errorf("layer minimum %.6f != element audit minimum %.6f", layerMin, rs.MinPts)
	}

	// Explicit radii win over AutoDoubling.
	explicit := []float64{5200e3, 3000e3}
	ge, err := Build(Config{NexXi: 8, NProcXi: 1, Model: prem, Doublings: explicit, AutoDoubling: &auto})
	if err != nil {
		t.Fatal(err)
	}
	if len(ge.Cfg.Doublings) != 2 || ge.Cfg.Doublings[0] != explicit[0] || ge.Cfg.Doublings[1] != explicit[1] {
		t.Errorf("explicit Doublings %v did not win over AutoDoubling: got %v", explicit, ge.Cfg.Doublings)
	}

	minDt, maxDt := math.Inf(1), 0.0
	for i, la := range ge.LayerAudits(ge.ShortestPeriod, mesh.Courant) {
		if la.MinDt <= 0 || math.IsInf(la.MinDt, 0) {
			t.Fatalf("row %d: bad MinDt %g", i, la.MinDt)
		}
		minDt, maxDt = min(minDt, la.MinDt), max(maxDt, la.MinDt)
	}
	elemMin := math.Inf(1)
	for _, l := range ge.Locals {
		for _, reg := range l.Regions {
			for e := 0; reg != nil && e < reg.NSpec; e++ {
				elemMin = min(elemMin, reg.ElementDt(e, mesh.Courant))
			}
		}
	}
	if math.Abs(minDt-elemMin) > 1e-12*elemMin {
		t.Errorf("layer dt minimum %.9f != per-element audit minimum %.9f", minDt, elemMin)
	}
	if global := mesh.StableDt(ge.Locals, mesh.Courant); minDt < global-1e-12*global {
		t.Errorf("layer dt minimum %.9f below the conservative mesh-wide StableDt %.9f", minDt, global)
	}
	if maxDt < 2*minDt {
		t.Errorf("doubled mesh shows no 2x dt headroom: spread %.3f..%.3f", minDt, maxDt)
	}
}

// The schedule follows the model, not fixed radii: on the homogeneous
// Earth-like model the region-bottom margins forbid a mantle doubling
// (constant Vs affords one only below ~4100 km, too close to the CMB),
// so both derived doublings sit in the fluid outer core — unlike PREM,
// whose velocity gradient pulls the first doubling into the mid-mantle.
func TestPlanDoublingsFollowsVelocityProfile(t *testing.T) {
	d, err := PlanDoublings(testModel(), 8, 1, 0, AutoDoubling{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 {
		t.Fatalf("homogeneous model derived %v, want 2 radii", d)
	}
	cmb, icb := 3480e3, 1221.5e3
	for _, r := range d {
		if r >= cmb || r <= icb {
			t.Errorf("homogeneous-model doubling at %.0f km outside the outer core (%v)", r/1e3, d)
		}
	}
	prem, err := PlanDoublings(earthmodel.NewPREM(), 8, 1, 0, AutoDoubling{})
	if err != nil {
		t.Fatal(err)
	}
	if prem[0] <= cmb {
		t.Errorf("PREM first doubling at %.0f km not in the mantle", prem[0]/1e3)
	}
}

// The derived radii snap to model discontinuities when one falls within
// a stage thickness: at a target period with headroom the first PREM
// doubling lands exactly on the R771 discontinuity (5600 km radius).
func TestPlanDoublingsSnapsToDiscontinuity(t *testing.T) {
	d, err := PlanDoublings(earthmodel.NewPREM(), 8, 1, 0, AutoDoubling{TargetPeriodS: 700})
	if err != nil {
		t.Fatal(err)
	}
	if len(d) == 0 || d[0] != earthmodel.PREMR771 {
		t.Errorf("derived %v: first radius should snap to R771 (%.0f km)", d, earthmodel.PREMR771/1e3)
	}
}
