package solver

import (
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/meshfem"
	"specglobe/internal/perf"
)

// identical asserts two seismograms agree bit-for-bit — the hybrid
// determinism guarantee: the mesh coloring fixes the accumulation
// order, so worker count must not change a single ulp.
func identical(t *testing.T, tag string, a, b *Seismogram) {
	t.Helper()
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: length mismatch %d vs %d", tag, len(a.X), len(b.X))
	}
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] || a.Z[i] != b.Z[i] {
			t.Fatalf("%s: sample %d differs: (%g,%g,%g) vs (%g,%g,%g)",
				tag, i, a.X[i], a.Y[i], a.Z[i], b.X[i], b.Y[i], b.Z[i])
		}
	}
	if maxAbs(a.X)+maxAbs(a.Y)+maxAbs(a.Z) == 0 {
		t.Fatalf("%s: no signal — the identity check is vacuous", tag)
	}
}

// Box mesh with attenuation and rotation on (the memory-variable
// recursions and pointwise corrections also run on the pool): every
// worker count must reproduce the Workers=1 sweep exactly.
func TestWorkersBitIdenticalBox(t *testing.T) {
	const L = 40e3
	run := func(workers int) *Seismogram {
		b := buildBox(t, 4, 4, L)
		src := boxSource(t, b, L/2+1e3, L/2, L/2, 1e17, 1.0)
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans,
			Sources:   []Source{src},
			Receivers: []Receiver{boxReceiver(t, b, "R", L/2+12e3, L/2+3e3, L/2, false)},
			Opts: Options{
				Steps: 60, Dt: 0.02, Workers: workers,
				Attenuation: true, AttenuationBand: [2]float64{0.1, 2.0},
				Rotation: true, RotationRate: 0.05,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seismograms["R"]
	}
	serial := run(1)
	for _, w := range []int{2, 4, 8} {
		identical(t, "box", serial, run(w))
	}
}

// Globe config of examples/scaling (solid-fluid-solid, 6 ranks): the
// fluid potential sweep and both coupling paths must also be
// bit-identical across worker counts.
func TestWorkersBitIdenticalGlobe(t *testing.T) {
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
	rloc, err := g.LocateLatLonDepth(20, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Seismogram {
		const m0 = 1e20
		res, err := Run(&Simulation{
			Locals: g.Locals, Plans: g.Plans, Model: model,
			Sources: []Source{{
				Rank: srcLoc.Rank, Kind: srcLoc.Kind, Elem: srcLoc.Elem, Ref: srcLoc.Ref,
				MomentTensor: [3][3]float64{{m0, 0, 0}, {0, m0, 0}, {0, 0, m0}},
				STF:          GaussianSTF(10, 25),
			}},
			Receivers: []Receiver{{Name: "R", Rank: rloc.Rank, Kind: rloc.Kind, Elem: rloc.Elem, Ref: rloc.Ref}},
			Opts:      Options{Steps: 25, Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seismograms["R"]
	}
	t.Run(schedule, func(t *testing.T) {
		identical(t, "globe", run(1), run(4))
	})
}

// The hybrid run must report its pool: worker count, per-worker busy
// time, and the kernel_parallel phase carrying the kernel CPU time.
func TestHybridPerfAccounting(t *testing.T) {
	const L = 40e3
	b := buildBox(t, 4, 2, L)
	src := boxSource(t, b, L/2, L/2, L/2, 1e17, 1.0)
	res, err := Run(&Simulation{
		Locals: b.Locals, Plans: b.Plans,
		Sources: []Source{src},
		Opts:    Options{Steps: 20, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Perf.Workers != 2 {
		t.Errorf("Workers = %d, want 2", res.Perf.Workers)
	}
	if len(res.Perf.WorkerBusy) != 2 {
		t.Fatalf("WorkerBusy has %d slots, want 2", len(res.Perf.WorkerBusy))
	}
	kp := res.Perf.PhaseTotals[perf.PhaseKernelParallel.String()]
	if kp <= 0 {
		t.Error("no kernel_parallel time recorded")
	}
	if res.Perf.BusyTime < kp {
		t.Error("kernel_parallel excluded from busy time")
	}
	if u := res.Perf.WorkerUtilization(); u < 0 || u > 1.5 {
		t.Errorf("worker utilization %v out of range", u)
	}
	// The default worker count resolves to GOMAXPROCS.
	def := Options{}.withDefaults()
	if def.Workers < 1 {
		t.Errorf("default Workers = %d", def.Workers)
	}
}
