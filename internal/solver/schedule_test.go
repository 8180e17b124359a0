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
// matrix JacW/kappa.
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
	reg.AssembleMassLocal()
	if err := reg.Validate(); err != nil {
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
// steps × (kernel + predictor + mass-division + corrector) work — the
// pointwise sweeps all route through perf.FlopCounts now, so the total
// is reproducible arithmetic, not a drifting estimate.
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
		want := int64(steps) * (c.SolidElement*int64(reg.NSpec) + perPoint*int64(reg.NGlob))
		if fc.TotalFlops != want {
			t.Errorf("rotation=%v: TotalFlops = %d, want %d", rotation, fc.TotalFlops, want)
		}
	}
}

// The byte model of source-free runs: every step streams exactly the
// element kernels' traffic plus, per solid point, the predictor (d rmw,
// v rmw, a read and zeroed: 18 floats), the one tail pass (a rmw,
// inverse mass, v rmw: 13 — Coriolis reads the v the corrector streams)
// and, with gravity, the term's reads (d, g/r and dg/dr, rhat: 8); per
// fluid point, the predictor (chi rmw, chiDot rmw, chiDdot read and
// zeroed: 6) and the one tail pass (chiDdot rmw, inverse mass, chiDot
// rmw: 5); and per coupling-face point the coupling and traction terms.
// The point streams are spelled out here, not read back from the model,
// so a term dropped from perf.DefaultByteCounts fails.
func TestByteAccountingExact(t *testing.T) {
	const solidPoint, gravityPoint, fluidPoint = 4 * (18 + 13), 4 * 8, 4 * (6 + 5)
	bc := perf.DefaultByteCounts()
	if got := bc.SolidPredictor + bc.SolidTail; got != solidPoint {
		t.Errorf("model charges %d B per solid point per step, the streams are %d B", got, solidPoint)
	}
	if bc.Gravity != gravityPoint {
		t.Errorf("model charges %d B of gravity per point per step, the streams are %d B", bc.Gravity, gravityPoint)
	}
	if got := bc.FluidPredictor + bc.FluidTail; got != fluidPoint {
		t.Errorf("model charges %d B per fluid point per step, the streams are %d B", got, fluidPoint)
	}
	const steps = 4
	// want is the bytes the runs over locals must count, gravity per
	// solid point included or not.
	want := func(locals []*mesh.Local, gravity int64) int64 {
		var n int64
		for _, l := range locals {
			for _, reg := range l.Regions {
				switch {
				case reg == nil || reg.NSpec == 0:
				case reg.IsFluid():
					n += (bc.FluidElementStatic+bc.FluidElementDynamic)*int64(reg.NSpec) + fluidPoint*int64(reg.NGlob)
				default:
					n += (bc.SolidElementStatic+bc.SolidElementDynamic)*int64(reg.NSpec) + (solidPoint+gravity)*int64(reg.NGlob)
				}
			}
			n += (bc.CouplePoint + bc.TractionPoint) * int64((len(l.CMB)+len(l.ICB))*mesh.NGLL2)
		}
		return steps * n
	}
	t.Run("box", func(t *testing.T) {
		b := buildBox(t, 3, 1, 40e3)
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans, Model: earthmodel.NewHomogeneous(6371e3, boxMat),
			Opts: Options{Steps: steps, Dt: 0.02, Rotation: true, RotationRate: 0.01, Gravity: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if w := want(b.Locals, gravityPoint); res.Perf.TotalBytes != w {
			t.Errorf("TotalBytes = %d, want %d", res.Perf.TotalBytes, w)
		}
	})
	t.Run("coupled-globe", func(t *testing.T) {
		g, model := coupledGlobe(t, 4, 1)
		res, err := Run(&Simulation{Locals: g.Locals, Plans: g.Plans, Model: model, Opts: Options{Steps: steps}})
		if err != nil {
			t.Fatal(err)
		}
		if w := want(g.Locals, 0); res.Perf.TotalBytes != w {
			t.Errorf("TotalBytes = %d, want %d", res.Perf.TotalBytes, w)
		}
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
