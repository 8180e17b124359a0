package solver

import (
	"math"
	"sync"
	"testing"

	"specglobe/internal/boxmesh"
	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/perf"
	"specglobe/internal/simd"
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

// boxBuildFluidDonor builds a tiny single-rank box region and folds its
// elements again into a fluid (outer-core) region: no shear modulus,
// fluid mass matrix JacW/kappa, P-wave element audit.
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
	reg := *b.Locals[0].Regions[earthmodel.RegionCrustMantle]
	reg.Kind, reg.Rho, reg.Kappa, reg.Mu, reg.Mass, reg.Audit = earthmodel.RegionOuterCore, make([]float32, len(reg.Jac)), nil, nil, nil, nil
	var el mesh.Element
	for e := 0; e < reg.NSpec; e++ {
		for p := range el.MassW {
			ip := e*mesh.NGLL3 + p
			el.MassW[p] = float32(float64(reg.Jac[ip]) * mesh.W3[p])
			el.Rho[p], el.Kappa[p] = float32(boxMat.Rho), float32(boxMat.Kappa())
			el.Pos[p] = reg.Pts[reg.Ibool[ip]]
		}
		if err := reg.Fold(e, &el); err != nil {
			return nil, err
		}
	}
	return &reg, reg.Finish()
}

// A rank with no fluid region must consume exactly the same tag
// sequence as fluid-bearing ranks — the two mass exchanges of the set-up
// and the two halo sets of every step: the solid halo between ranks 0
// and 1 only matches if both sides agree on every preceding tag. A
// misalignment deadlocks (both sides wait on tags the peer never sends)
// or corrupts the assembly; bit-identical solid physics with and
// without the extra fluid region proves neither happened.
func TestMixedRegionTagAlignment(t *testing.T) {
	const L = 40e3
	run := func(withFluid bool) *Seismogram {
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
			Receivers: []Receiver{boxReceiver(t, b, "R", L/2+12e3, L/2+3e3, L/2)},
			Opts:      Options{Steps: 40, Dt: 0.02},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seismograms["R"]
	}
	t.Run(schedule, func(t *testing.T) {
		identical(t, schedule, run(false), run(true))
	})
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
			Receivers: []Receiver{boxReceiver(t, b, "R", L/2+12e3, L/2+3e3, L/2)},
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

// A source-free box run's field stays +0, so every page stays dead and
// the run performs no arithmetic at all: every point visit of the
// predictor and the tail and every element visit is skipped — no force
// sweep is dispatched — and the analytic flop count is exactly zero,
// with rotation on or off. Its traffic is the tails' reads of
// the accelerations they test, 12 B per point per step.
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
		if fc.TotalFlops != 0 {
			t.Errorf("rotation=%v: TotalFlops = %d, want 0", rotation, fc.TotalFlops)
		}
		if want := int64(steps) * 3 * 4 * int64(reg.NGlob); fc.TotalBytes != want {
			t.Errorf("rotation=%v: TotalBytes = %d, want %d", rotation, fc.TotalBytes, want)
		}
		if got, want := fc.SkippedPoints["update"], int64(2*steps*reg.NGlob); got != want {
			t.Errorf("rotation=%v: %d point visits skipped, want all %d", rotation, got, want)
		}
		if got, want := fc.SkippedVisits["force_solid"], int64(steps*reg.NSpec); got != want {
			t.Errorf("rotation=%v: %d visits skipped, want all %d", rotation, got, want)
		}
	}
}

// The byte and flop model, traced. Every step streams the element
// kernels' traffic plus, per solid point on a live page, the predictor
// (d rmw, v rmw, a read and zeroed: 18 floats), the one tail pass (a
// rmw, inverse mass, v rmw: 13 — Coriolis reads the v the corrector
// streams) and, with gravity, the term's reads (d, g/r and dg/dr, rhat:
// 8); per fluid point on a live page, the predictor (chi rmw, chiDot
// rmw, chiDdot read and zeroed: 6) and the one tail pass (chiDdot rmw,
// inverse mass, chiDot rmw: 5); per coupling-face point the coupling and
// traction terms; and per element point of a source step its injection.
// A point on a dead page costs its predictor nothing and its tail the
// read of the final acceleration it tests — 3 floats, or 1 for the
// fluid — and no flops; deadTrace counts those visits step by step. An
// element visit that gathers a zero field is skipped and streams its
// gather alone: Ibool and the displacement (4 streams), or Ibool and the
// potential (2); the visits of a force sweep not dispatched on a quiet
// region stream nothing, and deadTrace counts those too. The field is
// zero before the first source injection, so a source-free run or a
// one-step run skips every visit.
// The point and gather streams are spelled out here, not read back from
// the model, so a term dropped from perf.DefaultByteCounts fails.
func TestByteAccountingExact(t *testing.T) {
	const solidPredict, solidTail, gravityPoint, solidDead = 4 * 18, 4 * 13, 4 * 8, 4 * 3
	const fluidPredict, fluidTail, fluidDead = 4 * 6, 4 * 5, 4 * 1
	const solidGather, fluidGather = 4 * 125 * 4, 4 * 125 * 2
	bc, fc := perf.DefaultByteCounts(), perf.DefaultFlopCounts()
	for _, c := range []struct {
		name        string
		model, want int64
	}{
		{"solid predictor", bc.SolidPredictor, solidPredict},
		{"solid tail", bc.SolidTail, solidTail},
		{"gravity", bc.Gravity, gravityPoint},
		{"solid dead point", bc.SolidDeadPoint, solidDead},
		{"fluid predictor", bc.FluidPredictor, fluidPredict},
		{"fluid tail", bc.FluidTail, fluidTail},
		{"fluid dead point", bc.FluidDeadPoint, fluidDead},
		{"skipped solid visit", bc.IboolGather + bc.SolidGather, solidGather},
		{"skipped fluid visit", bc.IboolGather + bc.FluidGather, fluidGather},
	} {
		if c.model != c.want {
			t.Errorf("model charges %d B per %s per step, the streams are %d B", c.model, c.name, c.want)
		}
	}
	// check compares a run's traced totals with the model: tr traced the
	// run's dead point visits, gravity is the per-solid-point gravity
	// bytes (0 when off), tailFlops the solid tail's rotation and gravity
	// flops per point (0 when off), nsls the attenuation mechanisms (0
	// when off), sources the run's source-injection steps.
	check := func(t *testing.T, locals []*mesh.Local, res *Result, tr *deadTrace, gravity, tailFlops, nsls, sources int64) {
		t.Helper()
		steps := int64(res.Steps)
		var solidE, fluidE, solidN, fluidN, wantB, wantF int64
		for _, l := range locals {
			for _, reg := range l.Regions {
				switch {
				case reg == nil || reg.NSpec == 0:
				case reg.IsFluid():
					fluidE += int64(reg.NSpec)
					fluidN += int64(reg.NGlob)
				default:
					solidE += int64(reg.NSpec)
					solidN += int64(reg.NGlob)
				}
			}
			faces := steps * int64((len(l.CMB)+len(l.ICB))*mesh.NGLL2)
			wantB += (bc.CouplePoint + bc.TractionPoint) * faces
			wantF += (fc.CouplePoint + fc.TractionPoint) * faces
		}
		livePS, liveTS := steps*solidN-tr.pred[0], steps*solidN-tr.tail[0]
		livePF, liveTF := steps*fluidN-tr.pred[1], steps*fluidN-tr.tail[1]
		wantB += solidPredict*livePS + (solidTail+gravity)*liveTS + solidDead*tr.tail[0]
		wantB += fluidPredict*livePF + fluidTail*liveTF + fluidDead*tr.tail[1]
		wantF += fc.SolidPredictor*livePS + (fc.SolidMassDiv+fc.SolidCorrector+tailFlops)*liveTS
		wantF += fc.FluidPredictor*livePF + (fc.FluidMassDiv+fc.FluidCorrector)*liveTF
		if got, want := res.Perf.SkippedPoints["update"], tr.pred[0]+tr.tail[0]+tr.pred[1]+tr.tail[1]; got != want {
			t.Errorf("SkippedPoints = %d, want the traced dead point visits %d", got, want)
		}
		wantB += sources * bc.SourcePoint * mesh.NGLL3
		wantF += sources * fc.SourcePoint * mesh.NGLL3
		ss, sf := res.Perf.SkippedVisits["force_solid"], res.Perf.SkippedVisits["force_fluid"]
		qs, qf := tr.quiet[0], tr.quiet[1]
		ranS, ranF := steps*solidE-ss, steps*fluidE-sf
		wantB += (bc.SolidElementStatic+bc.SolidElementDynamic+nsls*bc.AttenuationMech)*ranS + solidGather*(ss-qs)
		wantB += (bc.FluidElementStatic+bc.FluidElementDynamic)*ranF + fluidGather*(sf-qf)
		wantF += (fc.SolidElement+nsls*mesh.NGLL3*18+mesh.NGLL3*8*min(nsls, 1))*ranS + fc.FluidElement*ranF
		if res.Perf.TotalBytes != wantB {
			t.Errorf("TotalBytes = %d, want %d (%d + %d visits skipped, %d + %d on quiet regions)", res.Perf.TotalBytes, wantB, ss, sf, qs, qf)
		}
		if res.Perf.TotalFlops != wantF {
			t.Errorf("TotalFlops = %d, want %d (%d + %d visits skipped, %d + %d on quiet regions)", res.Perf.TotalFlops, wantF, ss, sf, qs, qf)
		}
	}
	// injections counts the steps whose source-time sample survives the
	// flush.
	injections := func(src Source, dt float64, steps int) (n int64) {
		for s := 0; s < steps; s++ {
			if ftz(float32(src.STF(float64(s+1)*dt))) != 0 {
				n++
			}
		}
		return n
	}
	t.Run("box", func(t *testing.T) {
		const L, steps, dt = 40e3, 6, 0.02
		tr := traceDead(t)
		b := buildBox(t, 3, 1, L)
		src := boxSource(t, b, L/2+1e3, L/2, L/2, 1e17, 1.0)
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans, Model: earthmodel.NewHomogeneous(6371e3, boxMat),
			Sources: []Source{src},
			Opts:    Options{Steps: steps, Dt: dt, Rotation: true, RotationRate: 0.01, Gravity: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, b.Locals, res, tr, gravityPoint, fc.Coriolis+fc.Gravity, 0, injections(src, dt, steps))
	})
	t.Run("coupled-globe", func(t *testing.T) {
		tr := traceDead(t)
		g, model := coupledGlobe(t, 4, 1)
		res, err := Run(&Simulation{Locals: g.Locals, Plans: g.Plans, Model: model, Opts: Options{Steps: 4}})
		if err != nil {
			t.Fatal(err)
		}
		check(t, g.Locals, res, tr, 0, 0, 0, 0)
	})
	// sourceRun runs globeSim's source on the coupled globe with
	// attenuation and returns the run, its dead point visits and its
	// source-injection steps.
	sourceRun := func(t *testing.T, steps int) (*meshfem.Globe, *Result, *deadTrace, int64) {
		tr := traceDead(t)
		g, model := coupledGlobe(t, 4, 1)
		sim := globeSim(t, g, model, Options{Steps: steps, Attenuation: true})
		res, err := Run(sim)
		if err != nil {
			t.Fatal(err)
		}
		return g, res, tr, injections(sim.Sources[0], res.Dt, steps)
	}
	t.Run("one-step", func(t *testing.T) {
		g, res, tr, injections := sourceRun(t, 1)
		var faces int64
		for _, l := range g.Locals {
			faces += int64((len(l.CMB) + len(l.ICB)) * mesh.NGLL2)
		}
		ph := res.Perf.PhaseFlops
		if ph["force_fluid"] != fc.CouplePoint*faces || ph["force_solid"] != fc.TractionPoint*faces+injections*fc.SourcePoint*mesh.NGLL3 {
			t.Errorf("force flops %d / %d, want the coupling terms' and the source injection's alone", ph["force_solid"], ph["force_fluid"])
		}
		check(t, g.Locals, res, tr, 0, 0, earthmodel.DefaultNSLS, injections)
	})
	t.Run("multi-step", func(t *testing.T) {
		const steps = 12
		g, res, tr, injections := sourceRun(t, steps)
		nominal := steps * int64(g.TotalElements())
		if ss, qs := res.Perf.SkippedVisits["force_solid"], tr.quiet[0]; ss == 0 || ss >= nominal || qs == 0 || qs >= ss {
			t.Errorf("%d solid visits skipped, %d on quiet regions: want some of each, not all", ss, qs)
		}
		var solidN int64
		for _, l := range g.Locals {
			for _, reg := range l.Regions {
				if reg != nil && !reg.IsFluid() {
					solidN += int64(reg.NGlob)
				}
			}
		}
		if tr.tail[0] == 0 || tr.tail[0] >= steps*solidN {
			t.Errorf("%d of %d solid tail visits on dead pages: want some, not all", tr.tail[0], steps*solidN)
		}
		check(t, g.Locals, res, tr, 0, 0, earthmodel.DefaultNSLS, injections)
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

// The energy diagnostic weighs velocity (solid) and pressure (fluid)
// with the local mass, where it once summed rho*JacW and JacW/kappa
// over element points: every sample equals that element quadrature,
// computed here in float64 with the weights Jac*W3 and the coupled
// globe's uniform solid density and fluid bulk modulus, to 1e-6.
func TestEnergyMatchesElementQuadrature(t *testing.T) {
	g, model := coupledGlobe(t, 4, 1)
	rho, kappa := float64(float32(model.At(5000e3).Rho)), float64(float32(model.At(2000e3).Kappa()))
	var mu sync.Mutex
	want := map[int][2]float64{}
	stepHook = func(rs *rankState, step int) {
		if (step+1)%10 == 0 {
			k, p := quadratureEnergy(rs, rho, kappa)
			mu.Lock()
			want[step+1] = [2]float64{want[step+1][0] + k, want[step+1][1] + p}
			mu.Unlock()
		}
	}
	defer func() { stepHook = nil }()
	sim := globeSim(t, g, model, Options{Steps: 60, EnergyEvery: 10})
	sim.Sources[0].STF = GaussianSTF(5, 12)
	res, err := Run(sim)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Energy) != 6 {
		t.Fatalf("%d energy samples, want 6", len(res.Energy))
	}
	for _, s := range res.Energy {
		w := want[s.Step]
		if math.Abs(s.Kinetic-w[0]) > 1e-6*w[0] || math.Abs(s.Potential-w[1]) > 1e-6*w[1] {
			t.Errorf("step %d: kinetic %g, potential %g; element quadrature %g, %g", s.Step, s.Kinetic, s.Potential, w[0], w[1])
		}
	}
}

// quadratureEnergy is the element-quadrature energy of the rank's field
// 0 (see TestEnergyMatchesElementQuadrature).
func quadratureEnergy(rs *rankState, rho, kappa float64) (kinetic, potential float64) {
	var u [3][simd.PadLen]float32
	var du [3][3][simd.PadLen]float32 // du[c][r]: d(u_c)/d(reference axis r)
	// grad returns d(u_c)/dx at element point ip of reg.
	grad := func(reg *mesh.Region, ip, p, c int) (out [3]float64) {
		m := [3][3]float32{{reg.Xix[ip], reg.Xiy[ip], reg.Xiz[ip]}, {reg.Etax[ip], reg.Etay[ip], reg.Etaz[ip]}, {reg.Gamx[ip], reg.Gamy[ip], reg.Gamz[ip]}}
		for x := range out {
			out[x] = float64(m[0][x]*du[c][0][p] + m[1][x]*du[c][1][p] + m[2][x]*du[c][2][p])
		}
		return out
	}
	for _, fs := range rs.solid {
		for e := 0; fs != nil && e < fs[0].reg.NSpec; e++ {
			f, reg := fs[0], fs[0].reg
			for p := 0; p < mesh.NGLL3; p++ {
				g, jw := reg.Ibool[e*mesh.NGLL3+p], float64(reg.Jac[e*mesh.NGLL3+p])*mesh.W3[p]
				for c := range u {
					u[c][p] = f.d[g][c]
					kinetic += 0.5 * rho * jw * float64(f.v[g][c]) * float64(f.v[g][c])
				}
			}
			for c := range u {
				rs.kern.grad(u[c][:], du[c][0][:], du[c][1][:], du[c][2][:])
			}
			for p := 0; p < mesh.NGLL3; p++ {
				ip := e*mesh.NGLL3 + p
				d := [3][3]float64{grad(reg, ip, p, 0), grad(reg, ip, p, 1), grad(reg, ip, p, 2)}
				mu := float64(reg.Mu[ip])
				tr := d[0][0] + d[1][1] + d[2][2]
				e2 := (float64(reg.Kappa[ip]) - 2.0/3.0*mu) * tr * tr // lambda tr^2 + 2 mu eps:eps
				for a := range d {
					for b := range d {
						e2 += 2 * mu * (d[a][b] + d[b][a]) * (d[a][b] + d[b][a]) / 4
					}
				}
				potential += 0.5 * float64(reg.Jac[ip]) * mesh.W3[p] * e2
			}
		}
	}
	for e := 0; rs.fluid != nil && e < rs.fluid[0].reg.NSpec; e++ {
		fl, reg := rs.fluid[0], rs.fluid[0].reg
		for p := 0; p < mesh.NGLL3; p++ {
			u[0][p] = fl.chiDot[reg.Ibool[e*mesh.NGLL3+p]]
		}
		rs.kern.grad(u[0][:], du[0][0][:], du[0][1][:], du[0][2][:])
		for p := 0; p < mesh.NGLL3; p++ {
			ip := e*mesh.NGLL3 + p
			jw, gr, pdd := float64(reg.Jac[ip])*mesh.W3[p], grad(reg, ip, p, 0), float64(fl.chiDdot[reg.Ibool[ip]])
			kinetic += 0.5 * jw * (gr[0]*gr[0] + gr[1]*gr[1] + gr[2]*gr[2]) / float64(reg.Rho[ip])
			potential += 0.5 * jw * pdd * pdd / kappa
		}
	}
	return kinetic, potential
}
