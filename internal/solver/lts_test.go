package solver

import (
	"math"
	"testing"

	"specglobe/internal/boxmesh"
	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
)

// ltsGlobe builds the depth-doubled globe the multi-rate tests run on:
// the per-element dt spectrum spans the doubling levels, so the
// clustering is genuinely multi-rate (rates 1, 2 and 4 at NEX 8).
func ltsGlobe(t testing.TB) (*meshfem.Globe, earthmodel.Model) {
	t.Helper()
	model := earthmodel.NewHomogeneous(6371e3, earthmodel.Material{
		Rho: 5000, Vp: 10000, Vs: 5500, Qmu: 300, Qkappa: 57823,
	})
	model.ICBRadius = 1221.5e3
	model.CMBRadius = 3480e3
	g, err := meshfem.Build(meshfem.Config{
		NexXi: 8, NProcXi: 1, Model: model,
		Doublings: []float64{5200e3, 3000e3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, model
}

// A uniform box at its automatic dt bins every element to rate 1; the
// degenerate clustering must route through the existing full-range code
// paths and produce bit-identical seismograms — across worker counts.
func TestLTSDegenerateRate1Identical(t *testing.T) {
	const L = 40e3
	run := func(lts bool, workers int) (*Seismogram, *LTSInfo) {
		b := buildBox(t, 4, 2, L)
		src := boxSource(t, b, L/2+1e3, L/2, L/2, 1e17, 1.0)
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans,
			Sources:   []Source{src},
			Receivers: []Receiver{boxReceiver(t, b, "R", L/2+12e3, L/2+3e3, L/2, false)},
			Opts:      Options{Steps: 40, Workers: workers, LTS: lts},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seismograms["R"], res.LTS
	}
	for _, workers := range []int{1, 4} {
		t.Run(schedule+map[int]string{1: "/w1", 4: "/w4"}[workers], func(t *testing.T) {
			off, info := run(false, workers)
			if info != nil {
				t.Fatal("Result.LTS set without Options.LTS")
			}
			on, info := run(true, workers)
			if info == nil {
				t.Fatal("Result.LTS missing")
			}
			if len(info.ElemsByRate) != 1 || info.ElemsByRate[1] == 0 {
				t.Fatalf("uniform box at auto dt: ElemsByRate = %v, want all rate 1", info.ElemsByRate)
			}
			if info.UpdateReduction != 1 {
				t.Errorf("degenerate UpdateReduction = %g, want 1", info.UpdateReduction)
			}
			identical(t, "lts-degenerate", off, on)
		})
	}
}

// A uniform box at half its stable dt coarsens every element to rate 2:
// the whole mesh is dormant on odd steps (the solver's fully-dormant
// paths — empty sweeps, skipped halo edges, empty update lists — must
// no-op cleanly), and on even steps the wheel performs exactly the
// arithmetic of the plain Newmark integrator at 2*dt. The odd-index
// seismogram samples (where the held state's record lead is zero) must
// therefore be BIT-IDENTICAL to a single-rate run at twice the step:
// a uniform coarse cluster IS the coarse integrator, not an
// approximation of it.
func TestLTSUniformRate2Box(t *testing.T) {
	const L = 40e3
	run := func(lts bool, dtScale float64, steps, workers int) (*Seismogram, *LTSInfo) {
		b := buildBox(t, 4, 2, L)
		reg := b.Locals[0].Regions[earthmodel.RegionCrustMantle]
		dt := reg.StableDt(0.3) / 2.1 * dtScale
		src := boxSource(t, b, L/2+1e3, L/2, L/2, 1e17, 1.0)
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans,
			Sources:   []Source{src},
			Receivers: []Receiver{boxReceiver(t, b, "R", L/2+12e3, L/2+3e3, L/2, false)},
			Opts:      Options{Steps: steps, Dt: dt, Workers: workers, LTS: lts},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seismograms["R"], res.LTS
	}
	t.Run(schedule, func(t *testing.T) {
		on, info := run(true, 1, 80, 1)
		if info == nil || info.ElemsByRate[2] == 0 || len(info.ElemsByRate) != 1 {
			t.Fatalf("ElemsByRate = %+v, want all rate 2", info)
		}
		if info.UpdateReduction != 2 {
			t.Errorf("uniform rate-2 UpdateReduction = %g, want 2", info.UpdateReduction)
		}
		checkFinite(t, on)
		// LTS sample at odd step m sits at the same simulated time as
		// coarse sample (m-1)/2, and the wheel's even-step arithmetic
		// matches the 2dt integrator operation for operation.
		coarse, _ := run(false, 2, 40, 1)
		for j := range coarse.X {
			m := 2*j + 1
			if on.X[m] != coarse.X[j] || on.Y[m] != coarse.Y[j] || on.Z[m] != coarse.Z[j] {
				t.Fatalf("decimated LTS sample %d differs from 2dt single-rate sample %d", m, j)
			}
		}
		on4, _ := run(true, 1, 80, 4)
		identical(t, "rate2-box-workers", on, on4)
	})
}

// multiRateBox builds the two-material box of the interface tests: the
// x < L/2 half is stiffened by exactly 4x in both moduli, doubling both
// wave speeds bit-exactly (rho untouched, so the mass matrix is
// unchanged). At the automatic dt — pinned by the stiff half — the soft
// half bins to rate 2, and every wave recorded across the midplane has
// crossed the rate interface.
func multiRateBox(t testing.TB, n, nranks int, L float64) *boxmesh.Box {
	t.Helper()
	b := buildBox(t, n, nranks, L)
	for _, l := range b.Locals {
		reg := l.Regions[earthmodel.RegionCrustMantle]
		for e := 0; e < reg.NSpec; e++ {
			stiff := false
			for p := e * mesh.NGLL3; p < (e+1)*mesh.NGLL3; p++ {
				if reg.Pts[reg.Ibool[p]][0] < L/2-1 {
					stiff = true
					break
				}
			}
			if !stiff {
				continue
			}
			for p := e * mesh.NGLL3; p < (e+1)*mesh.NGLL3; p++ {
				reg.Kappa[p] *= 4
				reg.Mu[p] *= 4
			}
		}
	}
	return b
}

// The adversarial configuration for the held-boundary scheme: a wave
// launched in the soft (rate-2) half and recorded after crossing into
// the stiff (rate-1) half, so 100% of the recorded signal passes
// through the rate interface, where the mixed-time force evaluation is
// first-order in dt. Measured worst-sample deviation from the
// single-rate scheduler is ~15% of peak here (bounded and slightly
// dissipative — see the energy test); the tolerance pins that honestly.
// Realistic meshes, where most of the signal path never touches an
// interface, sit far below this — see the doubled-globe test.
func TestLTSMultiRateBoxMatchesSingleRate(t *testing.T) {
	const L = 60e3
	run := func(lts bool, workers int) (*Seismogram, *LTSInfo) {
		b := multiRateBox(t, 6, 2, L)
		src := boxSource(t, b, 3*L/4, L/2, L/2, 1e17, 0.4)
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans,
			Sources:   []Source{src},
			Receivers: []Receiver{boxReceiver(t, b, "R", L/4, L/2+5e3, L/2, false)},
			Opts:      Options{Steps: 260, Workers: workers, LTS: lts},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seismograms["R"], res.LTS
	}
	t.Run(schedule, func(t *testing.T) {
		off, _ := run(false, 1)
		on, info := run(true, 1)
		if info == nil || len(info.ElemsByRate) < 2 {
			t.Fatalf("two-material box clustering is not multi-rate: %+v", info)
		}
		checkFinite(t, on)
		agreeSeismo(t, "multirate-box", off, on, 2e-1)
		on4, _ := run(true, 4)
		identical(t, "multirate-box-workers", on, on4)
	})
}

// Energy on the adversarial multi-rate box: the held-boundary interface
// is slightly dissipative and must never pump. Measured ~8.4% decay
// over 400 steps; the test bounds the drift at 10% and forbids growth
// above the post-source level.
func TestLTSMultiRateBoxEnergy(t *testing.T) {
	const L = 60e3
	b := multiRateBox(t, 6, 2, L)
	src := boxSource(t, b, 3*L/4, L/2, L/2, 1e17, 0.4)
	res, err := Run(&Simulation{
		Locals: b.Locals, Plans: b.Plans,
		Sources: []Source{src},
		Opts:    Options{Steps: 400, LTS: true, EnergyEvery: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	var post []float64
	for _, e := range res.Energy {
		if float64(e.Step)*res.Dt > 6 { // Ricker f0=0.4 has stopped radiating
			post = append(post, e.Kinetic+e.Potential)
		}
	}
	if len(post) < 3 {
		t.Fatalf("only %d post-source energy samples (dt=%g)", len(post), res.Dt)
	}
	first := post[0]
	if first <= 0 {
		t.Fatal("no energy injected")
	}
	for i, v := range post {
		if v > first*1.005 {
			t.Errorf("energy grew above the post-source level at sample %d: %g > %g", i, v, first)
		}
	}
	drift := math.Abs(post[len(post)-1]-first) / first
	t.Logf("post-source energy drift %.4f over %d samples", drift, len(post))
	if drift > 0.10 {
		t.Errorf("interface energy drift %.4f exceeds 10%%", drift)
	}
}

// agreeSeismo compares two seismograms sample by sample against a
// relative tolerance on the summed component scale.
func agreeSeismo(t *testing.T, tag string, a, b *Seismogram, tol float64) {
	t.Helper()
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: %d vs %d samples", tag, len(a.X), len(b.X))
	}
	scale := maxAbs(a.X) + maxAbs(a.Y) + maxAbs(a.Z)
	if scale == 0 {
		t.Fatalf("%s: no signal", tag)
	}
	worst := 0.0
	for i := range a.X {
		d := math.Abs(float64(a.X[i]-b.X[i])) +
			math.Abs(float64(a.Y[i]-b.Y[i])) +
			math.Abs(float64(a.Z[i]-b.Z[i]))
		if d/scale > worst {
			worst = d / scale
		}
	}
	t.Logf("%s: worst relative sample difference %.2e (tol %.0e)", tag, worst, tol)
	if worst > tol {
		t.Errorf("%s: worst relative difference %.2e exceeds %.0e", tag, worst, tol)
	}
}

// The multi-rate globe: LTS seismograms must track the single-rate
// scheduler within the relaxed cross-scheme tolerance, stay
// bit-identical across worker counts within the LTS scheme, and the
// run must report the realized clustering. The receiver sits ~670 km
// from the epicenter so a real arrival lands within the 120-step window;
// measured worst deviation is ~4.8e-2 of peak (most of the path never
// crosses a rate interface, so the error is well below the adversarial
// box's).
func TestLTSDoubledGlobeMatchesSingleRate(t *testing.T) {
	g, model := ltsGlobe(t)
	run := func(lts bool, workers int) (*Seismogram, *LTSInfo) {
		sim := globeSim(t, g, model, Options{Steps: 120, Workers: workers, LTS: lts})
		rloc, err := g.LocateLatLonDepth(6, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		sim.Receivers = []Receiver{{
			Name: "R", Rank: rloc.Rank, Kind: rloc.Kind, Elem: rloc.Elem, Ref: rloc.Ref,
		}}
		res, err := Run(sim)
		if err != nil {
			t.Fatal(err)
		}
		return res.Seismograms["R"], res.LTS
	}
	t.Run(schedule, func(t *testing.T) {
		off, _ := run(false, 1)
		on, info := run(true, 1)
		if info == nil {
			t.Fatal("Result.LTS missing")
		}
		if len(info.ElemsByRate) < 2 {
			t.Fatalf("doubled globe clustering is single-rate: %v", info.ElemsByRate)
		}
		if info.UpdateReduction <= 1.3 {
			t.Errorf("UpdateReduction = %.2f, want > 1.3 on the doubled globe", info.UpdateReduction)
		}
		checkFinite(t, on)
		// The held-interface scheme trades bit-identity for work: the
		// comparison against the single-rate scheduler is a physics
		// tolerance, not roundoff.
		agreeSeismo(t, "lts-globe", off, on, 7.5e-2)
		on4, _ := run(true, 4)
		identical(t, "lts-globe-workers", on, on4)
	})
}

// Energy conservation on the multi-rate globe: after the source stops
// radiating, total energy must drift no more than 5% — the end-to-end
// check that held interface state and rate-scaled substeps neither pump
// nor leak energy at the cluster boundaries. At both worker counts.
func TestLTSEnergyConservation(t *testing.T) {
	g, model := ltsGlobe(t)
	for _, workers := range []int{1, 4} {
		t.Run(schedule+map[int]string{1: "/w1", 4: "/w4"}[workers], func(t *testing.T) {
			sim := globeSim(t, g, model, Options{Steps: 80, EnergyEvery: 5, Workers: workers, LTS: true})
			sim.Sources[0].STF = GaussianSTF(5, 12)
			res, err := Run(sim)
			if err != nil {
				t.Fatal(err)
			}
			var post []float64
			for _, e := range res.Energy {
				if float64(e.Step)*res.Dt > 30 {
					post = append(post, e.Kinetic+e.Potential)
				}
			}
			if len(post) < 3 {
				t.Fatalf("only %d post-source energy samples (dt=%g)", len(post), res.Dt)
			}
			first, last := post[0], post[len(post)-1]
			if first <= 0 {
				t.Fatal("no energy injected")
			}
			drift := math.Abs(last-first) / first
			t.Logf("post-source energy drift %.4f over %d samples", drift, len(post))
			if drift > 0.05 {
				t.Errorf("energy drift %.4f exceeds 5%% (first %g, last %g)", drift, first, last)
			}
		})
	}
}

// The wheel math: level li fires at steps divisible by 2^li, capped at
// the top level.
func TestLTSLevelOf(t *testing.T) {
	cases := []struct{ step, levels, want int }{
		{0, 3, 2}, {1, 3, 0}, {2, 3, 1}, {3, 3, 0},
		{4, 3, 2}, {6, 3, 1}, {8, 3, 2}, {12, 3, 2},
		{0, 1, 0}, {5, 1, 0}, {2, 2, 1}, {4, 2, 1},
	}
	for _, c := range cases {
		if got := ltsLevelOf(c.step, c.levels); got != c.want {
			t.Errorf("ltsLevelOf(%d, %d) = %d, want %d", c.step, c.levels, got, c.want)
		}
	}
}
