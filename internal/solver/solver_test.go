package solver

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"specglobe/internal/boxmesh"
	"specglobe/internal/earthmodel"
	"specglobe/internal/gll"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/perf"
)

// boxMat is a crust-like homogeneous material.
var boxMat = earthmodel.Material{Rho: 2700, Vp: 8000, Vs: 4500, Qmu: 60, Qkappa: 57823}

// buildBox builds a cubic box mesh: n elements per side, size meters.
func buildBox(t testing.TB, n, nranks int, size float64) *boxmesh.Box {
	t.Helper()
	b, err := boxmesh.Build(boxmesh.Config{
		Nx: n, Ny: n, Nz: n,
		Lx: size, Ly: size, Lz: size,
		NRanks: nranks,
		Mat:    boxMat,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// boxSource places an explosion (isotropic moment tensor) at a position.
func boxSource(t testing.TB, b *boxmesh.Box, x, y, z, m0, f0 float64) Source {
	t.Helper()
	rank, elem, ref, err := b.Locate(x, y, z)
	if err != nil {
		t.Fatal(err)
	}
	return Source{
		Rank: rank, Kind: earthmodel.RegionCrustMantle, Elem: elem, Ref: ref,
		MomentTensor: [3][3]float64{{m0, 0, 0}, {0, m0, 0}, {0, 0, m0}},
		STF:          RickerSTF(f0, 1.2/f0),
	}
}

func boxReceiver(t testing.TB, b *boxmesh.Box, name string, x, y, z float64) Receiver {
	t.Helper()
	rank, elem, ref, err := b.Locate(x, y, z)
	if err != nil {
		t.Fatal(err)
	}
	return Receiver{Name: name, Rank: rank, Kind: earthmodel.RegionCrustMantle, Elem: elem, Ref: ref}
}

func checkFinite(t *testing.T, sg *Seismogram) {
	t.Helper()
	for i := range sg.X {
		for _, v := range []float32{sg.X[i], sg.Y[i], sg.Z[i]} {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("seismogram %s: non-finite sample at %d", sg.Name, i)
			}
		}
	}
}

func maxAbs(s []float32) float64 {
	m := 0.0
	for _, v := range s {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

func TestRunValidation(t *testing.T) {
	b := buildBox(t, 2, 1, 10e3)
	if _, err := Run(&Simulation{Locals: b.Locals, Plans: b.Plans, Opts: Options{Steps: 0}}); err == nil {
		t.Error("Steps=0 accepted")
	}
	if _, err := Run(&Simulation{Opts: Options{Steps: 1}}); err == nil {
		t.Error("empty mesh accepted")
	}
	sim := &Simulation{Locals: b.Locals, Plans: b.Plans, Opts: Options{Steps: 1},
		Sources: []Source{{Kind: earthmodel.RegionOuterCore, STF: func(float64) float64 { return 0 }}}}
	if _, err := Run(sim); err == nil {
		t.Error("fluid source accepted")
	}
	sim = &Simulation{Locals: b.Locals, Plans: b.Plans, Opts: Options{Steps: 1},
		Sources: []Source{{Kind: earthmodel.RegionCrustMantle}}}
	if _, err := Run(sim); err == nil {
		t.Error("source without STF accepted")
	}
	sim = &Simulation{Locals: b.Locals, Plans: b.Plans, Opts: Options{Steps: 1},
		Receivers: []Receiver{{Name: "A"}, {Name: "A"}}}
	if _, err := Run(sim); err == nil {
		t.Error("duplicate receiver names accepted")
	}
	if _, err := Run(&Simulation{Locals: b.Locals, Plans: b.Plans, Opts: Options{Steps: 1, Kernel: Kernel(7)}}); err == nil {
		t.Error("Kernel(7) accepted")
	}
	// A negative RecordEvery once reached a negative make() capacity on a
	// rank goroutine and panicked instead of returning an error.
	sim = &Simulation{Locals: b.Locals, Plans: b.Plans, Opts: Options{Steps: 4, RecordEvery: -2},
		Receivers: []Receiver{boxReceiver(t, b, "R", 5e3, 5e3, 5e3)}}
	if _, err := Run(sim); err == nil {
		t.Error("negative RecordEvery accepted")
	}
	// A source or receiver must sit in an element of a region its rank
	// carries. These once panicked on a rank goroutine, or (the
	// receiver's rank) ran and recorded nothing.
	stf := func(float64) float64 { return 0 }
	for _, c := range []struct {
		name string
		sim  Simulation
	}{
		{"source element", Simulation{Sources: []Source{{Elem: 1 << 20, STF: stf}}}},
		{"source kind", Simulation{Sources: []Source{{Kind: 5, STF: stf}}}},
		{"source region", Simulation{Sources: []Source{{Kind: earthmodel.RegionInnerCore, STF: stf}}}},
		{"receiver element", Simulation{Receivers: []Receiver{{Name: "R", Elem: 1 << 20}}}},
		{"receiver rank", Simulation{Receivers: []Receiver{{Name: "R", Rank: 9}}}},
		{"receiver kind", Simulation{Receivers: []Receiver{{Name: "R", Kind: -1}}}},
	} {
		c.sim.Locals, c.sim.Plans, c.sim.Opts = b.Locals, b.Plans, Options{Steps: 1}
		if _, err := Run(&c.sim); err == nil {
			t.Errorf("%s out of place accepted", c.name)
		}
	}
}

// With no source, everything must remain exactly zero.
func TestNoSourceStaysZero(t *testing.T) {
	t.Run(schedule, func(t *testing.T) {
		b := buildBox(t, 3, 3, 30e3)
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans,
			Receivers: []Receiver{boxReceiver(t, b, "Z", 15e3, 15e3, 15e3)},
			Opts:      Options{Steps: 20},
		})
		if err != nil {
			t.Fatal(err)
		}
		sg := res.Seismograms["Z"]
		if maxAbs(sg.X) != 0 || maxAbs(sg.Y) != 0 || maxAbs(sg.Z) != 0 {
			t.Error("fields moved without a source")
		}
	})
}

// A vertical point force at the center produces a symmetric response:
// receivers mirrored in x see identical z motion and opposite x motion.
func TestPointForceSymmetry(t *testing.T) {
	const L = 40e3
	b := buildBox(t, 4, 1, L)
	rank, elem, ref, err := b.Locate(L/2, L/2, L/2)
	if err != nil {
		t.Fatal(err)
	}
	src := Source{
		Rank: rank, Kind: earthmodel.RegionCrustMantle, Elem: elem, Ref: ref,
		Force: [3]float64{0, 0, 1e15},
		STF:   RickerSTF(0.5, 2.5),
	}
	res, err := Run(&Simulation{
		Locals: b.Locals, Plans: b.Plans,
		Sources: []Source{src},
		Receivers: []Receiver{
			boxReceiver(t, b, "E", L/2+10e3, L/2, L/2),
			boxReceiver(t, b, "W", L/2-10e3, L/2, L/2),
		},
		Opts: Options{Steps: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, w := res.Seismograms["E"], res.Seismograms["W"]
	checkFinite(t, e)
	checkFinite(t, w)
	if maxAbs(e.Z) == 0 {
		t.Fatal("no signal recorded")
	}
	scale := maxAbs(e.Z)
	for i := range e.Z {
		if math.Abs(float64(e.Z[i]-w.Z[i])) > 1e-4*scale {
			t.Fatalf("z-components differ at %d: %g vs %g", i, e.Z[i], w.Z[i])
		}
		if math.Abs(float64(e.X[i]+w.X[i])) > 1e-4*scale {
			t.Fatalf("x-components not antisymmetric at %d: %g vs %g", i, e.X[i], w.X[i])
		}
	}
}

// The P-wave from an explosion must arrive at the predicted travel time
// distance / vp. This validates the wave speed of the discrete operator.
func TestPWaveArrivalTime(t *testing.T) {
	const L = 80e3
	b := buildBox(t, 8, 1, L)
	// f0 = 0.4 Hz: P wavelength vp/f0 = 20 km, twice the 10 km element
	// size, i.e. ~10 GLL points per wavelength — comfortably resolved.
	const f0 = 0.4
	src := boxSource(t, b, L/2, L/2, L/2, 1e18, f0)
	const dist = 25e3
	res, err := Run(&Simulation{
		Locals:    b.Locals,
		Plans:     b.Plans,
		Sources:   []Source{src},
		Receivers: []Receiver{boxReceiver(t, b, "R", L/2+dist, L/2, L/2)},
		Opts:      Options{Steps: 110},
	})
	if err != nil {
		t.Fatal(err)
	}
	sg := res.Seismograms["R"]
	checkFinite(t, sg)
	peak := maxAbs(sg.X)
	if peak == 0 {
		t.Fatal("no arrival")
	}
	// The Ricker peak radiated at t0 travels at vp: the radial
	// component peaks at t0 + dist/vp.
	tPeak, vmax := -1.0, 0.0
	for i, v := range sg.X {
		if a := math.Abs(float64(v)); a > vmax {
			vmax = a
			tPeak = float64(i+1) * sg.Dt
		}
	}
	want := 1.2/f0 + dist/boxMat.Vp
	if relErr := math.Abs(tPeak-want) / want; relErr > 0.08 {
		t.Errorf("P peak at %.3f s, want ~%.3f s (rel err %.3f)", tPeak, want, relErr)
	}
}

// After the source stops radiating, total energy in the closed box
// (free-surface boundaries reflect everything) must stay constant.
func TestEnergyConservation(t *testing.T) {
	t.Run(schedule, func(t *testing.T) {
		const L = 40e3
		b := buildBox(t, 4, 2, L)
		src := boxSource(t, b, L/2, L/2, L/2, 1e17, 1.0)
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans,
			Sources: []Source{src},
			Opts:    Options{Steps: 300, EnergyEvery: 20},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Energy) < 10 {
			t.Fatalf("only %d energy samples", len(res.Energy))
		}
		// Source (Ricker at f0=1, t0=1.2) is done by ~3 s. Compare total
		// energy between the first post-source sample and the last.
		var post []float64
		for _, e := range res.Energy {
			tSec := float64(e.Step) * res.Dt
			if tSec > 3.5 {
				post = append(post, e.Kinetic+e.Potential)
			}
		}
		if len(post) < 3 {
			t.Fatalf("not enough post-source samples (dt=%g)", res.Dt)
		}
		first, last := post[0], post[len(post)-1]
		if first <= 0 {
			t.Fatal("no energy injected")
		}
		if drift := math.Abs(last-first) / first; drift > 0.03 {
			t.Errorf("energy drift %.4f over run (first %g, last %g)", drift, first, last)
		}
	})
}

// With attenuation on, energy must decay relative to the elastic run and
// the amplitude must drop.
func TestAttenuationDissipates(t *testing.T) {
	const L = 40e3
	run := func(att bool) float64 {
		b := buildBox(t, 4, 1, L)
		src := boxSource(t, b, L/2, L/2, L/2, 1e17, 1.0)
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans,
			Sources: []Source{src},
			Opts: Options{
				Steps: 300, EnergyEvery: 50, Attenuation: att,
				AttenuationBand: [2]float64{0.1, 2.0},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		e := res.Energy[len(res.Energy)-1]
		return e.Kinetic + e.Potential
	}
	elastic := run(false)
	anelastic := run(true)
	if anelastic >= elastic {
		t.Errorf("attenuation did not dissipate: %g >= %g", anelastic, elastic)
	}
	// Qmu=60 over several seconds should dissipate a visible fraction
	// but not all of the energy.
	if anelastic < 0.05*elastic {
		t.Errorf("attenuation too strong: %g vs %g", anelastic, elastic)
	}
}

// Different rank counts must produce the same physics; only float32
// summation order differs, so seismograms agree to roundoff ("the result
// is almost invariant by permutation down to the last digits", 4.2).
// The overlap split also changes with the rank count (outer elements
// are swept before inner ones), hence the 5e-4 tolerance.
func TestParallelInvariance(t *testing.T) {
	const L = 40e3
	t.Run(schedule, func(t *testing.T) {
		run := func(nranks int) *Seismogram {
			b := buildBox(t, 4, nranks, L)
			src := boxSource(t, b, L/2+1e3, L/2, L/2, 1e17, 1.0)
			res, err := Run(&Simulation{
				Locals: b.Locals, Plans: b.Plans,
				Sources:   []Source{src},
				Receivers: []Receiver{boxReceiver(t, b, "R", L/2+12e3, L/2+3e3, L/2)},
				Opts:      Options{Steps: 120, Dt: 0.02},
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.Seismograms["R"]
		}
		a := run(1)
		c := run(4)
		scale := maxAbs(a.X) + maxAbs(a.Y) + maxAbs(a.Z)
		if scale == 0 {
			t.Fatal("no signal")
		}
		for i := range a.X {
			dx := math.Abs(float64(a.X[i] - c.X[i]))
			dy := math.Abs(float64(a.Y[i] - c.Y[i]))
			dz := math.Abs(float64(a.Z[i] - c.Z[i]))
			if dx+dy+dz > 5e-4*scale {
				t.Fatalf("rank-count dependence at sample %d: diff %g (scale %g)", i, dx+dy+dz, scale)
			}
		}
	})
}

// kernelVariants lists every force-kernel implementation with a name
// for sub-tests and sub-benchmarks.
var kernelVariants = []struct {
	name string
	kv   Kernel
}{
	{"vec4", KernelVec4},
	{"scalar", KernelScalar},
}

// checkKernelVariantsAgree runs the given single-variant simulation for
// every kernel and requires all seismogram components to agree with the
// KernelVec4 reference within tol*scale.
func checkKernelVariantsAgree(t *testing.T, tol float64, run func(kv Kernel) *Seismogram) {
	t.Helper()
	ref := run(KernelVec4)
	scale := maxAbs(ref.X) + maxAbs(ref.Y) + maxAbs(ref.Z)
	if scale == 0 {
		t.Fatal("no signal in reference run")
	}
	for _, v := range kernelVariants {
		if v.kv == KernelVec4 {
			continue
		}
		got := run(v.kv)
		for i := range ref.X {
			dx := math.Abs(float64(ref.X[i] - got.X[i]))
			dy := math.Abs(float64(ref.Y[i] - got.Y[i]))
			dz := math.Abs(float64(ref.Z[i] - got.Z[i]))
			if dx+dy+dz > tol*scale {
				t.Fatalf("kernel %s differs at sample %d: diff %g (scale %g)",
					v.name, i, dx+dy+dz, scale)
			}
		}
	}
}

// Every kernel's printed name parses back to it, the empty name is the
// default, and an unknown name is an error — the one parser the one-shot
// CLI and the daemon share. The two retired names say so and list what
// is accepted.
func TestParseKernel(t *testing.T) {
	for _, k := range []Kernel{KernelVec4, KernelScalar} {
		got, err := ParseKernel(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if got, err := ParseKernel(""); err != nil || got != (Options{}).Kernel {
		t.Errorf(`ParseKernel("") = %v, %v; want the Options default`, got, err)
	}
	if _, err := ParseKernel("quantum"); err == nil {
		t.Error("unknown kernel name accepted")
	}
	for _, name := range []string{"fused", "blas"} {
		_, err := ParseKernel(name)
		if err == nil {
			t.Errorf("retired kernel %q accepted", name)
			continue
		}
		for _, want := range []string{"retired", "vec4", "scalar"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ParseKernel(%q): %q does not mention %q", name, err, want)
			}
		}
	}
}

// All kernel variants must produce the same seismograms to float32
// roundoff.
func TestKernelVariantsAgree(t *testing.T) {
	const L = 40e3
	checkKernelVariantsAgree(t, 2e-5, func(kv Kernel) *Seismogram {
		b := buildBox(t, 4, 1, L)
		src := boxSource(t, b, L/2, L/2, L/2, 1e17, 1.0)
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans,
			Sources:   []Source{src},
			Receivers: []Receiver{boxReceiver(t, b, "R", L/2+10e3, L/2, L/2)},
			Opts:      Options{Steps: 100, Dt: 0.02, Kernel: kv},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seismograms["R"]
	})
}

// The agreement must survive the attenuation path: the SLS memory-
// variable recursion runs inside the force kernels, so a variant that
// reorders it would drift from the others over a run.
func TestKernelVariantsAgreeAttenuation(t *testing.T) {
	const L = 40e3
	checkKernelVariantsAgree(t, 2e-5, func(kv Kernel) *Seismogram {
		b := buildBox(t, 4, 1, L)
		src := boxSource(t, b, L/2, L/2, L/2, 1e17, 1.0)
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans,
			Sources:   []Source{src},
			Receivers: []Receiver{boxReceiver(t, b, "R", L/2+10e3, L/2, L/2)},
			Opts: Options{
				Steps: 100, Dt: 0.02, Kernel: kv,
				Attenuation: true, AttenuationBand: [2]float64{0.1, 2},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seismograms["R"]
	})
}

// The agreement must also hold on a doubled globe, where the fluid
// kernel, the solid-fluid coupling, and non-uniform element geometry
// (doubling-layer bricks) all participate.
func TestKernelVariantsAgreeDoubledGlobe(t *testing.T) {
	model := earthmodel.NewHomogeneous(6371e3, earthmodel.Material{
		Rho: 5000, Vp: 10000, Vs: 5500, Qmu: 300, Qkappa: 57823,
	})
	model.ICBRadius = 1221.5e3
	model.CMBRadius = 3480e3
	g, err := meshfem.Build(meshfem.Config{
		NexXi: 8, NProcXi: 1, Model: model, Doublings: []float64{5200e3},
	})
	if err != nil {
		t.Fatal(err)
	}
	srcLoc, err := g.LocateLatLonDepth(0, 0, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	rcvLoc, err := g.LocateLatLonDepth(10, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	const m0 = 1e20
	checkKernelVariantsAgree(t, 2e-5, func(kv Kernel) *Seismogram {
		res, err := Run(&Simulation{
			Locals: g.Locals, Plans: g.Plans, Model: model,
			Sources: []Source{{
				Rank: srcLoc.Rank, Kind: srcLoc.Kind, Elem: srcLoc.Elem, Ref: srcLoc.Ref,
				MomentTensor: [3][3]float64{{m0, 0, 0}, {0, m0, 0}, {0, 0, m0}},
				STF:          GaussianSTF(5, 15),
			}},
			Receivers: []Receiver{{
				Name: "R", Rank: rcvLoc.Rank, Kind: rcvLoc.Kind,
				Elem: rcvLoc.Elem, Ref: rcvLoc.Ref,
			}},
			Opts: Options{Steps: 60, Kernel: kv},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seismograms["R"]
	})
}

// Within a variant, results must be bit-identical at every worker
// count: the sweeps are conflict-free by coloring and per-element work
// never depends on chunk or panel boundaries.
func TestKernelVariantsWorkerBitIdentity(t *testing.T) {
	const L = 40e3
	for _, v := range kernelVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			run := func(workers int) *Seismogram {
				b := buildBox(t, 4, 1, L)
				src := boxSource(t, b, L/2, L/2, L/2, 1e17, 1.0)
				res, err := Run(&Simulation{
					Locals: b.Locals, Plans: b.Plans,
					Sources:   []Source{src},
					Receivers: []Receiver{boxReceiver(t, b, "R", L/2+10e3, L/2, L/2)},
					Opts:      Options{Steps: 60, Dt: 0.02, Kernel: v.kv, Workers: workers},
				})
				if err != nil {
					t.Fatal(err)
				}
				return res.Seismograms["R"]
			}
			one := run(1)
			four := run(4)
			for i := range one.X {
				if one.X[i] != four.X[i] || one.Y[i] != four.Y[i] || one.Z[i] != four.Z[i] {
					t.Fatalf("kernel %s not bit-identical across workers at sample %d", v.name, i)
				}
			}
		})
	}
}

// Nearest-point recording (the fast section 4.4 mode): a receiver whose
// Ref is snapped to the nearest GLL node records through the same
// interpolation weights, one-hot there, and must agree with a receiver
// located at that node's position.
func TestNearestVsInterpolated(t *testing.T) {
	const L, h = 40e3, 10e3 // 4 elements of 10 km per side
	b := buildBox(t, 4, 1, L)
	src := boxSource(t, b, L/2, L/2, L/2, 1e17, 1.0)
	// Refs (0.6, -0.8, 1) in the element whose low corner is at
	// (20, 20, 10) km: off the nearest node in x and y.
	snap := boxReceiver(t, b, "snap", L/2+8e3, L/2+1e3, L/2)
	pts := gll.Points(gll.Degree)
	for c, x := range snap.Ref {
		snap.Ref[c] = pts[0]
		for _, p := range pts {
			if math.Abs(p-x) < math.Abs(snap.Ref[c]-x) {
				snap.Ref[c] = p
			}
		}
	}
	node := boxReceiver(t, b, "node", L/2+(snap.Ref[0]+1)*h/2, L/2+(snap.Ref[1]+1)*h/2, L/2-h+(snap.Ref[2]+1)*h/2)
	if node.Elem != snap.Elem || math.Abs(node.Ref[0]-0.6) < 0.01 {
		t.Fatalf("node receiver at element %d ref %v, snapped %d %v", node.Elem, node.Ref, snap.Elem, snap.Ref)
	}
	res, err := Run(&Simulation{
		Locals: b.Locals, Plans: b.Plans,
		Sources:   []Source{src},
		Receivers: []Receiver{node, snap},
		Opts:      Options{Steps: 100, Dt: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, s := res.Seismograms["node"], res.Seismograms["snap"]
	scale := maxAbs(a.X)
	if scale == 0 {
		t.Fatal("no signal")
	}
	for i := range a.X {
		if math.Abs(float64(a.X[i]-s.X[i])) > 1e-5*scale {
			t.Fatalf("snapped recording differs from the node's at %d", i)
		}
	}
}

// Rotation must deflect motion: with Coriolis force on (exaggerated
// rotation rate), the transverse component at a receiver differs from
// the non-rotating run.
func TestRotationDeflects(t *testing.T) {
	const L = 40e3
	run := func(rotation bool) *Seismogram {
		b := buildBox(t, 4, 1, L)
		src := boxSource(t, b, L/2, L/2, L/2, 1e17, 1.0)
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans,
			Sources:   []Source{src},
			Receivers: []Receiver{boxReceiver(t, b, "R", L/2+10e3, L/2, L/2)},
			Opts: Options{
				Steps: 100, Dt: 0.02, Rotation: rotation,
				// Exaggerate so the effect is visible in a short run.
				RotationRate: 0.05,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seismograms["R"]
	}
	base := run(false)
	rot := run(true)
	checkFinite(t, rot)
	var diff float64
	for i := range base.Y {
		diff += math.Abs(float64(base.Y[i] - rot.Y[i]))
	}
	if diff == 0 {
		t.Error("rotation had no effect on the transverse component")
	}
}

// Globe integration: a moment-tensor source in the mantle of a full
// Earth-like ball (solid-fluid-solid) must produce finite seismograms
// and bounded energy (coupling signs stable).
func TestGlobeEndToEnd(t *testing.T) {
	model := earthmodel.NewHomogeneous(6371e3, earthmodel.Material{
		Rho: 5000, Vp: 10000, Vs: 5500, Qmu: 300, Qkappa: 57823,
	})
	model.ICBRadius = 1221.5e3
	model.CMBRadius = 3480e3
	g, err := meshfem.Build(meshfem.Config{NexXi: 4, NProcXi: 1, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	srcLoc, err := g.LocateLatLonDepth(0, 0, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	const m0 = 1e20
	src := Source{
		Rank: srcLoc.Rank, Kind: srcLoc.Kind, Elem: srcLoc.Elem, Ref: srcLoc.Ref,
		MomentTensor: [3][3]float64{{m0, 0, 0}, {0, m0, 0}, {0, 0, m0}},
		STF:          GaussianSTF(5, 15),
	}
	var recvs []Receiver
	for _, st := range []struct {
		name     string
		lat, lon float64
	}{{"NEAR", 10, 10}, {"FAR", 0, 120}, {"ANTI", 0, 179}} {
		loc, err := g.LocateLatLonDepth(st.lat, st.lon, 0)
		if err != nil {
			t.Fatal(err)
		}
		recvs = append(recvs, Receiver{
			Name: st.name, Rank: loc.Rank, Kind: loc.Kind, Elem: loc.Elem, Ref: loc.Ref,
		})
	}
	res, err := Run(&Simulation{
		Locals: g.Locals, Plans: g.Plans, Model: model,
		Sources: []Source{src}, Receivers: recvs,
		Opts: Options{Steps: 120, EnergyEvery: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range res.Seismograms {
		checkFinite(t, sg)
	}
	if maxAbs(res.Seismograms["NEAR"].X)+maxAbs(res.Seismograms["NEAR"].Z) == 0 {
		t.Error("near station recorded nothing")
	}
	// The Gaussian source (t0=15 s, half duration 5 s) is finished by
	// ~30 s. After that, total energy in the closed coupled system must
	// stay bounded: no sample may exceed twice the first post-source
	// sample (a coupling sign error grows exponentially instead).
	var post []float64
	for _, e := range res.Energy {
		if e.Kinetic < 0 {
			t.Error("negative kinetic energy")
		}
		if float64(e.Step)*res.Dt > 35 {
			post = append(post, e.Kinetic+e.Potential)
		}
	}
	if len(post) < 3 {
		t.Fatalf("not enough post-source energy samples (dt=%g)", res.Dt)
	}
	for i, e := range post {
		if e > 2*post[0] {
			t.Fatalf("post-source energy grew: sample %d is %g vs %g", i, e, post[0])
		}
	}
	// Comm stats must show real exchanges.
	if res.MPI.Messages == 0 || res.MPI.BytesSent == 0 {
		t.Error("no MPI traffic recorded")
	}
	if res.Perf.TotalFlops == 0 {
		t.Error("no flops counted")
	}
}

// The overlapped schedule must hide part of the virtual communication
// time behind the inner-element sweeps, leaving strictly less exposed
// than the whole virtual comm time a blocking schedule would expose.
func TestOverlapHidesComm(t *testing.T) {
	const L = 40e3
	b := buildBox(t, 4, 4, L)
	src := boxSource(t, b, L/2+1e3, L/2, L/2, 1e17, 1.0)
	res, err := Run(&Simulation{
		Locals: b.Locals, Plans: b.Plans,
		Sources:   []Source{src},
		Receivers: []Receiver{boxReceiver(t, b, "R", L/2+12e3, L/2+3e3, L/2)},
		Opts:      Options{Steps: 120, Dt: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MPI.HiddenCommTime <= 0 {
		t.Error("overlap schedule hid no communication time")
	}
	if res.MPI.Exposed() >= res.MPI.VirtualCommTime {
		t.Errorf("overlap did not reduce exposed comm: %v vs %v virtual",
			res.MPI.Exposed(), res.MPI.VirtualCommTime)
	}
}

// mpi.Stats is the run's one record of communication: the profiler's
// mpi phase is its exposed share to the nanosecond, and busy time is the
// plain sum of the phases. The box run counts Allreduce traffic (the
// stability check and the energy samples); the 24-rank globe runs its
// halo exchanges through the worker pool.
func TestCommLedger(t *testing.T) {
	run := func(sim *Simulation) *Result {
		t.Helper()
		res, err := Run(sim)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Perf.PhaseTotals[perf.PhaseComm.String()], res.MPI.Exposed(); got != want {
			t.Errorf("mpi phase %v, want the exposed comm time %v", got, want)
		}
		var sum time.Duration
		for _, d := range res.Perf.PhaseTotals {
			sum += d
		}
		if res.Perf.BusyTime != sum {
			t.Errorf("busy time %v, want the sum of the phases %v", res.Perf.BusyTime, sum)
		}
		return res
	}
	const L = 40e3
	b := buildBox(t, 4, 4, L)
	box := func(every int) *Simulation {
		return &Simulation{
			Locals: b.Locals, Plans: b.Plans,
			Sources:   []Source{boxSource(t, b, L/2+1e3, L/2, L/2, 1e17, 1.0)},
			Receivers: []Receiver{boxReceiver(t, b, "R", L/2+12e3, L/2+3e3, L/2)},
			Opts:      Options{Steps: 40, Dt: 0.02, StabilityCheckEvery: every, EnergyEvery: every},
		}
	}
	checked, quiet := run(box(10)), run(box(0))
	// Four checks and four energy samples, one reduction each per rank.
	if d := checked.MPI.Messages - quiet.MPI.Messages; d != 2*4*4 {
		t.Errorf("the reductions added %d messages, want %d", d, 2*4*4)
	}
	g, model := earthlike24(t)
	run(globeSim(t, g, model, Options{Steps: 10, Workers: 2}))
}

func BenchmarkSolidForceKernelVec4(b *testing.B) {
	benchSolidKernel(b, KernelVec4)
}

func BenchmarkSolidForceKernelScalar(b *testing.B) {
	benchSolidKernel(b, KernelScalar)
}

// BenchmarkKernelVariants runs every force-kernel variant as a
// sub-benchmark; CI executes it at -benchtime 1x so a variant that
// stops compiling or regresses to NaN fails fast.
func BenchmarkKernelVariants(b *testing.B) {
	for _, v := range kernelVariants {
		v := v
		b.Run(v.name, func(b *testing.B) { benchSolidKernel(b, v.kv) })
	}
}

func benchSolidKernel(b *testing.B, kv Kernel) {
	const L = 40e3
	bx, err := boxmesh.Build(boxmesh.Config{
		Nx: 6, Ny: 6, Nz: 6, Lx: L, Ly: L, Lz: L, NRanks: 1, Mat: boxMat,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(&Simulation{
			Locals: bx.Locals, Plans: bx.Plans,
			Opts: Options{Steps: 3, Dt: 0.01, Kernel: kv},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttenuationOnOff reproduces the paper's section 6 finding:
// attenuation increases execution time by ~1.8x.
func BenchmarkAttenuationOff(b *testing.B) { benchAttenuation(b, false) }
func BenchmarkAttenuationOn(b *testing.B)  { benchAttenuation(b, true) }

func benchAttenuation(b *testing.B, att bool) {
	const L = 40e3
	bx, err := boxmesh.Build(boxmesh.Config{
		Nx: 6, Ny: 6, Nz: 6, Lx: L, Ly: L, Lz: L, NRanks: 1, Mat: boxMat,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(&Simulation{
			Locals: bx.Locals, Plans: bx.Plans,
			Opts: Options{Steps: 3, Dt: 0.01, Attenuation: att, AttenuationBand: [2]float64{0.1, 2}},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// The stability monitor must abort a run whose time step violates the
// CFL condition instead of marching NaNs to the end.
func TestStabilityMonitorAborts(t *testing.T) {
	const L = 40e3
	b := buildBox(t, 4, 1, L)
	src := boxSource(t, b, L/2, L/2, L/2, 1e17, 1.0)
	auto := mesh.StableDt(b.Locals, mesh.Courant)
	_, err := Run(&Simulation{
		Locals:  b.Locals,
		Plans:   b.Plans,
		Sources: []Source{src},
		Opts: Options{
			Steps: 400, Dt: 10 * auto, // grossly unstable
			StabilityCheckEvery: 10,
		},
	})
	if err == nil {
		t.Fatal("unstable run completed without error")
	}
	// A stable run with the monitor on completes normally.
	if _, err := Run(&Simulation{
		Locals:  b.Locals,
		Plans:   b.Plans,
		Sources: []Source{src},
		Opts:    Options{Steps: 50, StabilityCheckEvery: 10},
	}); err != nil {
		t.Fatalf("stable run aborted: %v", err)
	}
}

// A run that marches a NaN to its end without the monitor names its
// time step, whether it is the automatic one, and the step as the
// likely cause: at 4x the automatic dt a NEX 4 globe overflows within
// 100 steps.
func TestNonFiniteRunNamesTheStep(t *testing.T) {
	g, model := coupledGlobe(t, 4, 1)
	auto := mesh.StableDt(g.Locals, mesh.Courant)
	res, err := Run(globeSim(t, g, model, Options{Steps: 100, Dt: 4 * auto, StabilityCheckEvery: 0}))
	if err == nil {
		t.Fatalf("a run at 4x the automatic dt ended without error (max displacement %g)", res.MaxDisplacement)
	}
	if m := res.MaxDisplacement; !math.IsNaN(m) && !math.IsInf(m, 0) {
		t.Fatalf("error %q, but the max displacement %g is finite", err, m)
	}
	for _, want := range []string{
		fmt.Sprintf("at dt %g s", 4*auto),
		"set by Options.Dt: 4 times mesh.Courant's automatic",
		"likely cause is a time step too large",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}

// Elastodynamic reciprocity: for point forces in a linear elastic
// medium, the z-displacement at B from a z-force at A equals the
// z-displacement at A from the same z-force at B. This is a deep
// correctness property of the discrete operator (symmetry of K and M).
func TestReciprocity(t *testing.T) {
	const L = 40e3
	run := func(srcPos, rcvPos [3]float64) *Seismogram {
		b := buildBox(t, 4, 1, L)
		rank, elem, ref, err := b.Locate(srcPos[0], srcPos[1], srcPos[2])
		if err != nil {
			t.Fatal(err)
		}
		src := Source{
			Rank: rank, Kind: earthmodel.RegionCrustMantle, Elem: elem, Ref: ref,
			Force: [3]float64{0, 0, 1e15},
			STF:   RickerSTF(0.5, 2.5),
		}
		res, err := Run(&Simulation{
			Locals:    b.Locals,
			Plans:     b.Plans,
			Sources:   []Source{src},
			Receivers: []Receiver{boxReceiver(t, b, "R", rcvPos[0], rcvPos[1], rcvPos[2])},
			Opts:      Options{Steps: 150, Dt: 0.02},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seismograms["R"]
	}
	// Two interior points, deliberately asymmetric in the box.
	A := [3]float64{12e3, 18e3, 22e3}
	B := [3]float64{27e3, 14e3, 17e3}
	ab := run(A, B)
	ba := run(B, A)
	scale := maxAbs(ab.Z)
	if scale == 0 {
		t.Fatal("no signal")
	}
	for i := range ab.Z {
		if math.Abs(float64(ab.Z[i]-ba.Z[i])) > 2e-3*scale {
			t.Fatalf("reciprocity violated at sample %d: %g vs %g (scale %g)",
				i, ab.Z[i], ba.Z[i], scale)
		}
	}
}
