package solver

import (
	"math"
	"testing"

	"specglobe/internal/boxmesh"
	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/perf"
)

// schedule is the sub-test name of the one step schedule: the tests
// that once looped over a blocking baseline keep their overlap ids.
const schedule = "overlap"

// coupledGlobe builds the solid-fluid-solid globe the schedule tests
// run on (6·nproc² ranks).
func coupledGlobe(t testing.TB, nex, nproc int) (*meshfem.Globe, earthmodel.Model) {
	t.Helper()
	model := earthmodel.NewHomogeneous(6371e3, earthmodel.Material{
		Rho: 5000, Vp: 10000, Vs: 5500, Qmu: 300, Qkappa: 57823,
	})
	model.ICBRadius = 1221.5e3
	model.CMBRadius = 3480e3
	g, err := meshfem.Build(meshfem.Config{NexXi: nex, NProcXi: nproc, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	return g, model
}

func globeSim(t testing.TB, g *meshfem.Globe, model earthmodel.Model, opts Options) *Simulation {
	t.Helper()
	srcLoc, err := g.LocateLatLonDepth(0, 0, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	rloc, err := g.LocateLatLonDepth(20, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	const m0 = 1e20
	return &Simulation{
		Locals: g.Locals, Plans: g.Plans, Model: model,
		Sources: []Source{{
			Rank: srcLoc.Rank, Kind: srcLoc.Kind, Elem: srcLoc.Elem, Ref: srcLoc.Ref,
			MomentTensor: [3][3]float64{{m0, 0, 0}, {0, m0, 0}, {0, 0, m0}},
			STF:          GaussianSTF(10, 25),
		}},
		Receivers: []Receiver{{Name: "R", Rank: rloc.Rank, Kind: rloc.Kind, Elem: rloc.Elem, Ref: rloc.Ref}},
		Opts:      opts,
	}
}

// attachDecoupledFluid grafts a standalone fluid region (no coupling
// faces, no halo edges) onto one rank of a box world: the minimal
// mixed-region configuration — one rank carries a fluid region, the
// others do not — that exercises the tag-alignment paths of the step.
func attachDecoupledFluid(t *testing.T, locals []*mesh.Local, rank int) {
	t.Helper()
	donor, err := boxBuildFluidDonor()
	if err != nil {
		t.Fatal(err)
	}
	locals[rank].Regions[earthmodel.RegionOuterCore] = donor
}

// boxBuildFluidDonor builds a tiny single-rank box region and converts
// it to a fluid (outer-core) region: zero shear modulus, fluid mass
// matrix JacW/kappa, P-wave element audit.
func boxBuildFluidDonor() (*mesh.Region, error) {
	b, err := boxmesh.Build(boxmesh.Config{
		Nx: 2, Ny: 2, Nz: 2,
		Lx: 5e3, Ly: 5e3, Lz: 5e3,
		NRanks: 1,
		Mat:    boxMat,
	})
	if err != nil {
		return nil, err
	}
	reg := b.Locals[0].Regions[earthmodel.RegionCrustMantle]
	reg.Kind = earthmodel.RegionOuterCore
	for i := range reg.Mu {
		reg.Mu[i] = 0
	}
	if err := reg.Finish(); err != nil {
		return nil, err
	}
	return reg, nil
}

// A rank with no fluid region must consume exactly the same tag
// sequence as fluid-bearing ranks, with separate and combined solid
// halos: the solid halo between ranks 0 and 1 only matches if both sides
// agree on every preceding tag. A misalignment deadlocks (both sides
// wait on tags the peer never sends) or corrupts the assembly;
// bit-identical solid physics with and without the extra fluid region
// proves neither happened.
func TestMixedRegionTagAlignment(t *testing.T) {
	const L = 40e3
	run := func(withFluid bool, combined bool) *Seismogram {
		b := buildBox(t, 4, 2, L)
		if withFluid {
			attachDecoupledFluid(t, b.Locals, 1)
			var err error
			b.Plans, err = mesh.BuildHalo(b.Locals)
			if err != nil {
				t.Fatal(err)
			}
		}
		src := boxSource(t, b, L/2+1e3, L/2, L/2, 1e17, 1.0)
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans,
			Sources:   []Source{src},
			Receivers: []Receiver{boxReceiver(t, b, "R", L/2+12e3, L/2+3e3, L/2, false)},
			Opts: Options{
				Steps: 40, Dt: 0.02, CombinedSolidHalo: combined,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seismograms["R"]
	}
	for _, combined := range []bool{false, true} {
		name := schedule
		if combined {
			name += "/combined"
		}
		t.Run(name, func(t *testing.T) {
			identical(t, name, run(false, combined), run(true, combined))
		})
	}
}

// Global energy on a coupled fluid-solid globe must be conserved to
// bounded drift after the source stops radiating — at both worker
// counts. This is the end-to-end check that the coupling applies the
// traction with the *final* boundary fluid values (the fluid tail runs
// before it): a schedule bug that couples a partially assembled
// potential pumps or leaks energy at the CMB/ICB every step.
func TestCoupledEnergyConservation(t *testing.T) {
	g, model := coupledGlobe(t, 4, 1)
	for _, workers := range []int{1, 4} {
		t.Run(schedule+map[int]string{1: "/w1", 4: "/w4"}[workers], func(t *testing.T) {
			sim := globeSim(t, g, model, Options{Steps: 80, EnergyEvery: 5, Workers: workers})
			// Short source so the run (~58 s at this mesh's dt) has a
			// long post-source window.
			sim.Sources[0].STF = GaussianSTF(5, 12)
			res, err := Run(sim)
			if err != nil {
				t.Fatal(err)
			}
			// The Gaussian source (half duration 5 s, peak 12 s) has
			// stopped radiating by ~30 s; compare total energy from the
			// first post-source sample to the last.
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
			if drift := math.Abs(last-first) / first; drift > 0.05 {
				t.Errorf("energy drift %.4f (first %g, last %g)", drift, first, last)
			}
		})
	}
}

// Seismogram.Dt is documented as solver dt × RecordEvery; with
// RecordEvery > 1 the stored samples must be the exact decimation of
// the every-step recording (sample i ↔ step (i+1)·RecordEvery), and a
// producer that stored the raw solver dt would stretch downstream
// spectra by the decimation factor.
func TestSeismogramDtRecordEvery(t *testing.T) {
	const L = 40e3
	run := func(every int) (*Seismogram, float64) {
		b := buildBox(t, 4, 1, L)
		src := boxSource(t, b, L/2+1e3, L/2, L/2, 1e17, 1.0)
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans,
			Sources:   []Source{src},
			Receivers: []Receiver{boxReceiver(t, b, "R", L/2+12e3, L/2+3e3, L/2, false)},
			Opts:      Options{Steps: 30, Dt: 0.02, RecordEvery: every},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seismograms["R"], res.Dt
	}
	full, _ := run(1)
	dec, dt := run(3)
	if dec.RecordEvery != 3 {
		t.Errorf("RecordEvery = %d, want 3", dec.RecordEvery)
	}
	if want := dt * 3; dec.Dt != want {
		t.Errorf("decimated Dt = %g, want solver dt x RecordEvery = %g", dec.Dt, want)
	}
	if len(dec.X) != 10 {
		t.Fatalf("%d samples, want 30/3 = 10", len(dec.X))
	}
	if maxAbs(dec.X)+maxAbs(dec.Y)+maxAbs(dec.Z) == 0 {
		t.Fatal("no signal")
	}
	for i := range dec.X {
		j := 3*i + 2 // step (i+1)*3 is full-rate sample index (i+1)*3-1
		if dec.X[i] != full.X[j] || dec.Y[i] != full.Y[j] || dec.Z[i] != full.Z[j] {
			t.Fatalf("decimated sample %d != full-rate sample %d", i, j)
		}
	}
}

// The analytic flop count of a source-free box run is exactly
// steps × (predictor + mass-division + corrector) work — the pointwise
// sweeps all route through perf.FlopCounts, so the total is reproducible
// arithmetic, not a drifting estimate. The field stays zero, so every
// element visit is skipped and charged no flops.
func TestFlopAccountingExact(t *testing.T) {
	const L = 40e3
	for _, rotation := range []bool{false, true} {
		b := buildBox(t, 3, 1, L)
		const steps = 4
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans,
			Opts: Options{Steps: steps, Dt: 0.02, Rotation: rotation, RotationRate: 0.01},
		})
		if err != nil {
			t.Fatal(err)
		}
		reg := b.Locals[0].Regions[earthmodel.RegionCrustMantle]
		fc := res.Perf
		c := perf.DefaultFlopCounts()
		perPoint := c.SolidPredictor + c.SolidMassDiv + c.SolidCorrector
		if rotation {
			perPoint += c.Coriolis
		}
		if want := int64(steps) * perPoint * int64(reg.NGlob); fc.TotalFlops != want {
			t.Errorf("rotation=%v: TotalFlops = %d, want %d", rotation, fc.TotalFlops, want)
		}
		if got, want := fc.SkippedVisits["force_solid"], int64(steps*reg.NSpec); got != want {
			t.Errorf("rotation=%v: %d visits skipped, want all %d", rotation, got, want)
		}
	}
}

// The byte and flop model, traced. Every step streams the element
// kernels' traffic plus, per solid point, the predictor (d rmw, v rmw, a
// read and zeroed: 18 floats), the one tail pass (a rmw, inverse mass, v
// rmw: 13 — Coriolis reads the v the corrector streams) and, with
// gravity, the term's reads (d, g/r and dg/dr, rhat: 8); per fluid
// point, the predictor (chi rmw, chiDot rmw, chiDdot read and zeroed: 6)
// and the one tail pass (chiDdot rmw, inverse mass, chiDot rmw: 5); per
// coupling-face point the coupling and traction terms; and per element
// point of a source step its injection. An element visit that gathers a
// zero field is skipped and streams its gather alone: Ibool and the
// displacement (4 streams), or Ibool and the potential (2); the field is
// zero before the first source injection, so a source-free run or a
// one-step run skips every visit. The point and gather streams are
// spelled out here, not read back from the model, so a term dropped from
// perf.DefaultByteCounts fails.
func TestByteAccountingExact(t *testing.T) {
	const solidPoint, gravityPoint, fluidPoint = 4 * (18 + 13), 4 * 8, 4 * (6 + 5)
	const solidGather, fluidGather = 4 * 125 * 4, 4 * 125 * 2
	bc, fc := perf.DefaultByteCounts(), perf.DefaultFlopCounts()
	if got := bc.SolidPredictor + bc.SolidTail; got != solidPoint {
		t.Errorf("model charges %d B per solid point per step, the streams are %d B", got, solidPoint)
	}
	if bc.Gravity != gravityPoint {
		t.Errorf("model charges %d B of gravity per point per step, the streams are %d B", bc.Gravity, gravityPoint)
	}
	if got := bc.FluidPredictor + bc.FluidTail; got != fluidPoint {
		t.Errorf("model charges %d B per fluid point per step, the streams are %d B", got, fluidPoint)
	}
	if bc.IboolGather+bc.SolidGather != solidGather || bc.IboolGather+bc.FluidGather != fluidGather {
		t.Errorf("model charges %d / %d B per skipped solid / fluid visit, the streams are %d / %d B",
			bc.IboolGather+bc.SolidGather, bc.IboolGather+bc.FluidGather, solidGather, fluidGather)
	}
	// check compares a run's traced totals with the model: gravity is
	// the per-solid-point gravity bytes (0 when off), nsls the attenuation
	// mechanisms (0 when off), sources the run's source-injection steps.
	// The run's rotation and gravity flops are not modelled: callers
	// leave them off or check bytes alone.
	check := func(t *testing.T, locals []*mesh.Local, res *Result, gravity, nsls, sources int64, flops bool) {
		t.Helper()
		steps := int64(res.Steps)
		var solidE, fluidE, wantB, wantF int64
		for _, l := range locals {
			for _, reg := range l.Regions {
				switch {
				case reg == nil || reg.NSpec == 0:
				case reg.IsFluid():
					fluidE += int64(reg.NSpec)
					wantB += steps * fluidPoint * int64(reg.NGlob)
					wantF += steps * (fc.FluidPredictor + fc.FluidMassDiv + fc.FluidCorrector) * int64(reg.NGlob)
				default:
					solidE += int64(reg.NSpec)
					wantB += steps * (solidPoint + gravity) * int64(reg.NGlob)
					wantF += steps * (fc.SolidPredictor + fc.SolidMassDiv + fc.SolidCorrector) * int64(reg.NGlob)
				}
			}
			faces := steps * int64((len(l.CMB)+len(l.ICB))*mesh.NGLL2)
			wantB += (bc.CouplePoint + bc.TractionPoint) * faces
			wantF += (fc.CouplePoint + fc.TractionPoint) * faces
		}
		wantB += sources * bc.SourcePoint * mesh.NGLL3
		wantF += sources * fc.SourcePoint * mesh.NGLL3
		ss, sf := res.Perf.SkippedVisits["force_solid"], res.Perf.SkippedVisits["force_fluid"]
		ranS, ranF := steps*solidE-ss, steps*fluidE-sf
		wantB += (bc.SolidElementStatic+bc.SolidElementDynamic+nsls*bc.AttenuationMech)*ranS + solidGather*ss
		wantB += (bc.FluidElementStatic+bc.FluidElementDynamic)*ranF + fluidGather*sf
		wantF += (fc.SolidElement+nsls*mesh.NGLL3*18+mesh.NGLL3*8*min(nsls, 1))*ranS + fc.FluidElement*ranF
		if res.Perf.TotalBytes != wantB {
			t.Errorf("TotalBytes = %d, want %d (%d + %d visits skipped)", res.Perf.TotalBytes, wantB, ss, sf)
		}
		if flops && res.Perf.TotalFlops != wantF {
			t.Errorf("TotalFlops = %d, want %d (%d + %d visits skipped)", res.Perf.TotalFlops, wantF, ss, sf)
		}
	}
	t.Run("box", func(t *testing.T) {
		b := buildBox(t, 3, 1, 40e3)
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans, Model: earthmodel.NewHomogeneous(6371e3, boxMat),
			Opts: Options{Steps: 4, Dt: 0.02, Rotation: true, RotationRate: 0.01, Gravity: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, b.Locals, res, gravityPoint, 0, 0, false)
	})
	t.Run("coupled-globe", func(t *testing.T) {
		g, model := coupledGlobe(t, 4, 1)
		res, err := Run(&Simulation{Locals: g.Locals, Plans: g.Plans, Model: model, Opts: Options{Steps: 4}})
		if err != nil {
			t.Fatal(err)
		}
		check(t, g.Locals, res, 0, 0, 0, true)
	})
	// sourceRun runs globeSim's source on the coupled globe with
	// attenuation and returns the run and its source-injection steps.
	sourceRun := func(t *testing.T, steps int) (*meshfem.Globe, *Result, int64) {
		g, model := coupledGlobe(t, 4, 1)
		sim := globeSim(t, g, model, Options{Steps: steps, Attenuation: true})
		res, err := Run(sim)
		if err != nil {
			t.Fatal(err)
		}
		var injections int64
		for s := 0; s < steps; s++ {
			if ftz(float32(sim.Sources[0].STF(float64(s+1)*res.Dt))) != 0 {
				injections++
			}
		}
		return g, res, injections
	}
	t.Run("one-step", func(t *testing.T) {
		g, res, injections := sourceRun(t, 1)
		var faces int64
		for _, l := range g.Locals {
			faces += int64((len(l.CMB) + len(l.ICB)) * mesh.NGLL2)
		}
		ph := res.Perf.PhaseFlops
		if ph["force_fluid"] != fc.CouplePoint*faces || ph["force_solid"] != fc.TractionPoint*faces+injections*fc.SourcePoint*mesh.NGLL3 {
			t.Errorf("force flops %d / %d, want the coupling terms' and the source injection's alone", ph["force_solid"], ph["force_fluid"])
		}
		check(t, g.Locals, res, 0, earthmodel.DefaultNSLS, injections, true)
	})
	t.Run("multi-step", func(t *testing.T) {
		const steps = 12
		g, res, injections := sourceRun(t, steps)
		if ss := res.Perf.SkippedVisits["force_solid"]; ss == 0 || ss >= steps*int64(g.TotalElements()) {
			t.Errorf("%d solid visits skipped: want some, not all", ss)
		}
		check(t, g.Locals, res, 0, earthmodel.DefaultNSLS, injections, true)
	})
}

// Flop accounting is worker-invariant: every worker count performs
// identical arithmetic on the coupled globe, so the counted totals must
// agree exactly.
func TestFlopAccountingWorkerInvariant(t *testing.T) {
	g, model := coupledGlobe(t, 4, 1)
	var ref int64
	for _, workers := range []int{1, 4} {
		res, err := Run(globeSim(t, g, model, Options{Steps: 6, Workers: workers}))
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			ref = res.Perf.TotalFlops
			if ref <= 0 {
				t.Fatal("no flops counted")
			}
			continue
		}
		if res.Perf.TotalFlops != ref {
			t.Errorf("w%d: TotalFlops = %d, want %d (worker count changed the count)",
				workers, res.Perf.TotalFlops, ref)
		}
	}
}
