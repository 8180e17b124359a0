package solver

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
			Receivers: []Receiver{boxReceiver(t, b, "R", L/2+12e3, L/2+3e3, L/2)},
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

// mixedShapes makes the ranks change shape every step, half of them
// inline while the other half dispatch chunks: the transitions and the
// mixed steps a changing load can cause, on demand.
func mixedShapes() func(rank int) bool {
	var steps [64]atomic.Int64
	return func(rank int) bool {
		return (int64(rank)+steps[rank].Add(1))%2 == 0
	}
}

// Globe config of examples/scaling (solid-fluid-solid, 6 ranks): the
// fluid potential sweep and both coupling paths must also be
// bit-identical across worker counts — Workers 1 (always inline), 2 and
// 6 (as the loads decide), 12 (more workers than ranks: chunked), and
// Workers 2 and 6 with every rank forced inline, forced chunked, and
// switching shape every step.
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
	run := func(workers int, shape func(rank int) bool) *Seismogram {
		const m0 = 1e20
		shapeHook = shape
		defer func() { shapeHook = nil }()
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
		serial := run(1, nil)
		for _, w := range []int{2, 6, 12} {
			identical(t, fmt.Sprintf("globe/w%d", w), serial, run(w, nil))
		}
		for _, w := range []int{2, 6} {
			identical(t, fmt.Sprintf("globe/w%d/inline", w), serial, run(w, func(int) bool { return true }))
			identical(t, fmt.Sprintf("globe/w%d/chunked", w), serial, run(w, func(int) bool { return false }))
			identical(t, fmt.Sprintf("globe/w%d/mixed", w), serial, run(w, mixedShapes()))
		}
	})
}

// At most Workers sweeps compute at once, whoever runs them: on the
// 6-rank globe at Workers 1 (the ranks always sweep inline) no two
// sweeps ever overlap, and at Workers 2 no three do, also with the
// ranks changing shape every step, so the worker goroutines' chunks and
// the inline ranks share the tokens. Each sweep yields the processor as
// it starts, so one that ran without a token would be caught on one
// core too.
func TestWorkersCapConcurrentCompute(t *testing.T) {
	g, model := coupledGlobe(t, 4, 1)
	for _, c := range []struct {
		workers int
		shape   func(rank int) bool
	}{{1, nil}, {2, nil}, {2, mixedShapes()}} {
		var now, peak, sweeps atomic.Int64
		sweepHook = func(delta int) {
			if delta > 0 {
				sweeps.Add(1)
				n := now.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				runtime.Gosched()
				return
			}
			now.Add(-1)
		}
		shapeHook = c.shape
		_, err := Run(globeSim(t, g, model, Options{Steps: 4, Workers: c.workers}))
		sweepHook, shapeHook = nil, nil
		if err != nil {
			t.Fatal(err)
		}
		if sweeps.Load() == 0 {
			t.Fatalf("Workers %d: no sweep observed", c.workers)
		}
		if p := peak.Load(); p > int64(c.workers) {
			t.Errorf("Workers %d (mixed %v): %d sweeps ran at once", c.workers, c.shape != nil, p)
		}
	}
}

// The hybrid run must report its compute in both shapes: worker count,
// per-token busy time, and the kernel_parallel phase carrying the
// kernel CPU time. On the 2-rank box at Workers 2, with the ranks
// forced inline, forced chunked and left to the loads, and at Workers
// 4 (more workers than ranks: chunked), the tokens' busy time is
// exactly the ranks' sweep time.
func TestHybridPerfAccounting(t *testing.T) {
	const L = 40e3
	b := buildBox(t, 4, 2, L)
	src := boxSource(t, b, L/2, L/2, L/2, 1e17, 1.0)
	for _, c := range []struct {
		workers int
		name    string
		shape   func(rank int) bool
	}{
		{2, "inline", func(int) bool { return true }},
		{2, "chunked", func(int) bool { return false }},
		{2, "loads", nil},
		{4, "loads", nil},
	} {
		shapeHook = c.shape
		res, err := Run(&Simulation{
			Locals: b.Locals, Plans: b.Plans,
			Sources: []Source{src},
			Opts:    Options{Steps: 20, Workers: c.workers},
		})
		shapeHook = nil
		if err != nil {
			t.Fatal(err)
		}
		p := res.Perf
		if p.Workers != c.workers {
			t.Errorf("Workers = %d, want %d", p.Workers, c.workers)
		}
		if len(p.WorkerBusy) != c.workers {
			t.Fatalf("WorkerBusy has %d slots, want %d", len(p.WorkerBusy), c.workers)
		}
		kp := p.PhaseTotals[perf.PhaseKernelParallel.String()]
		if kp <= 0 {
			t.Errorf("Workers %d %s: no kernel_parallel time recorded", c.workers, c.name)
		}
		if p.BusyTime < kp {
			t.Errorf("Workers %d %s: kernel_parallel excluded from busy time", c.workers, c.name)
		}
		if u := p.WorkerUtilization(); u <= 0 || u > 1.5 {
			t.Errorf("Workers %d %s: worker utilization %v out of range", c.workers, c.name, u)
		}
		var busy time.Duration
		for _, d := range p.WorkerBusy {
			busy += d
		}
		if sweeps := kp + p.PhaseTotals[perf.PhaseUpdate.String()]; busy != sweeps {
			t.Errorf("Workers %d %s: tokens busy %v, the ranks swept %v", c.workers, c.name, busy, sweeps)
		}
	}
	// The default worker count resolves to GOMAXPROCS.
	def := Options{}.withDefaults()
	if def.Workers < 1 {
		t.Errorf("default Workers = %d", def.Workers)
	}
}

// A rank that panics while it holds the only compute token hands it
// back, so the ranks queued for it reach the poisoned world and the run
// fails with the panic instead of hanging. On the 6-rank globe the
// source rank panics in its sources beat, after its fluid halo is
// posted: every other rank can then finish its fluid exchange, and
// within the pause before the panic queues for the token.
func TestRankPanicReleasesComputeToken(t *testing.T) {
	g, model := coupledGlobe(t, 4, 1)
	sim := globeSim(t, g, model, Options{Steps: 4, Workers: 1})
	sim.Sources[0].STF = func(tm float64) float64 {
		if tm > 0 {
			time.Sleep(50 * time.Millisecond)
			panic("boom")
		}
		return 0
	}
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		Run(sim)
	}()
	select {
	case r := <-got:
		if r == nil || !strings.Contains(fmt.Sprint(r), "boom") {
			t.Errorf("run ended with %v, want the rank's panic", r)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the run hangs after a rank panicked holding the compute token")
	}
}
