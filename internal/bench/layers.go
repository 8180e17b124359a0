package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"specglobe/internal/core"
	"specglobe/internal/gll"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/meshio"
	"specglobe/internal/mpi"
	"specglobe/internal/perf"
	"specglobe/internal/service"
	"specglobe/internal/simd"
	"specglobe/internal/solver"
	"specglobe/internal/stations"
)

// layerMetric declares one per-layer metric.
type layerMetric struct{ Name, Unit, Better string }

// PerLayer lists every per-layer metric, in print order. A traced run
// reports all of them on every workload; a layer the workload bypasses
// reports 0.
var PerLayer = []layerMetric{
	{"simd.grad_scalar_ns", "ns", "lower"},
	{"simd.grad_vec4_ns", "ns", "lower"},
	{"simd.grad_blas_ns", "ns", "lower"},
	{"simd.grad_fused_ns", "ns", "lower"},
	{"simd.gradt_fused_ns", "ns", "lower"},
	{"simd.grad_fused_batch4_ns", "ns", "lower"},
	{"simd.grad_flops", "count", "lower"},
	{"simd.grad_vec4_gflops", "Gflop/s", "higher"},

	{"solver.run_s", "s", "lower"},
	{"solver.loop_s", "s", "lower"},
	{"solver.setup_s", "s", "lower"},
	{"solver.kernel_parallel_s", "s", "lower"},
	{"solver.update_s", "s", "lower"},
	{"solver.force_solid_s", "s", "lower"},
	{"solver.force_fluid_s", "s", "lower"},
	{"solver.other_s", "s", "lower"},
	{"solver.unattributed_s", "s", "lower"},
	{"solver.worker_utilization", "ratio", "higher"},
	{"solver.flops", "count", "lower"},
	{"solver.bytes_computed", "count", "lower"},
	{"solver.flop_per_byte", "ratio", "higher"},
	{"solver.gflops", "Gflop/s", "higher"},
	{"solver.us_per_elem_step", "us", "lower"},
	{"solver.step_ms_early", "ms", "lower"},
	{"solver.step_ms_late", "ms", "lower"},
	{"solver.late_over_early", "ratio", "lower"},
	{"solver.self_s", "s", "lower"},

	{"mpi.messages_per_step", "count", "lower"},
	{"mpi.bytes_per_step", "count", "lower"},
	{"mpi.virtual_comm_s", "s", "lower"},
	{"mpi.hidden_comm_s", "s", "higher"},
	{"mpi.exposed_comm_s", "s", "lower"},
	{"mpi.comm_fraction", "ratio", "lower"},
	{"mpi.wall_comm_s", "s", "lower"},
	{"mpi.max_rank_comm_s", "s", "lower"},
	{"mpi.msg_wall_us", "us", "lower"},

	{"mesh.halo_plan_s", "s", "lower"},
	{"mesh.coloring_s", "s", "lower"},
	{"mesh.max_colors", "count", "lower"},
	{"mesh.overlap_split_s", "s", "lower"},
	{"mesh.outer_fraction", "ratio", "lower"},
	{"mesh.stats_s", "s", "lower"},
	{"mesh.halo_boundary_points", "count", "lower"},
	{"mesh.load_imbalance", "ratio", "lower"},
	{"mesh.self_s", "s", "lower"},

	{"meshfem.build_s", "s", "lower"},
	{"meshfem.build_self_s", "s", "lower"},
	{"meshfem.elements", "count", "lower"},
	{"meshfem.points", "count", "lower"},
	{"meshfem.us_per_element", "us", "lower"},
	{"meshfem.alloc_mb", "MB", "lower"},
	{"meshfem.locate_event_us", "us", "lower"},
	{"meshfem.self_s", "s", "lower"},

	{"meshio.write_s", "s", "lower"},
	{"meshio.read_s", "s", "lower"},
	{"meshio.db_bytes", "count", "lower"},
	{"meshio.mesh_bytes", "count", "lower"},
	{"meshio.write_mb_per_s", "MB/s", "higher"},

	{"stations.locate_us", "us", "lower"},
	{"stations.self_s", "s", "lower"},

	{"core.new_session_s", "s", "lower"},
	{"core.session_overhead_s", "s", "lower"},
	{"core.run_s", "s", "lower"},
	{"core.first_chunk_s", "s", "lower"},
	{"core.write_sem_s", "s", "lower"},
	{"core.sem_bytes", "count", "lower"},
	{"core.self_s", "s", "lower"},

	{"service.daemon_ready_s", "s", "lower"},
	{"service.cold_burst_s", "s", "lower"},
	{"service.first_chunk_p50_s", "s", "lower"},
	{"service.job_latency_p50_s", "s", "lower"},
	{"service.job_latency_max_s", "s", "lower"},
	{"service.submit_us", "us", "lower"},
	{"service.session_builds", "count", "lower"},
	{"service.session_hits", "count", "higher"},
	{"service.evictions", "count", "lower"},
	{"service.batches", "count", "lower"},
	{"service.mean_batch_size", "ratio", "higher"},
	{"service.cache_mb", "MB", "lower"},
	{"service.wire_lines", "count", "lower"},
	{"service.wire_bytes", "count", "lower"},
	{"service.client_decode_s", "s", "lower"},
	{"service.batch_src_steps_per_s", "steps/s", "higher"},
	{"service.non_solver_s", "s", "lower"},
	{"service.self_s", "s", "lower"},

	{"bench.trace_overhead_ratio", "ratio", "lower"},
	{"bench.accounted_share", "ratio", "higher"},
	{"bench.self_s", "s", "lower"},
	{"bench.misfit_max", "ratio", "lower"},
	{"bench.cold_rep_s", "s", "lower"},
	{"bench.calib_ms", "ms", "lower"},
	{"bench.calib_drift", "ratio", "lower"},
}

// gradFlops is the computed operation count of one three-direction
// gradient of a 125-point block: 3 applies × 125 points × 10 flops,
// the count perf.DefaultFlopCounts charges per apply.
const gradFlops = 3 * simd.BlockLen * 10

// simdMicro times the public element kernels over simdBlocks distinct
// blocks, ns per 125-point block.
func simdMicro(simdBlocks int, into map[string]float64) {
	m := simd.MatrixFromF64(gll.New(gll.Degree).HPrime)
	cols := simd.Columns4(m)
	rng := newRand(1, "simd")
	fill := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = 2*rng.Float32() - 1
		}
		return v
	}
	n := simdBlocks * simd.PadLen
	u, d1, d2, d3 := fill(n), make([]float32, n), make([]float32, n), make([]float32, n)
	f1, f2, f3 := fill(simd.PadLen), fill(simd.PadLen), fill(simd.PadLen)
	scrIn, scrOut := make([]float32, simd.PadLen), make([]float32, simd.PadLen)
	block := func(v []float32, e int) []float32 { return v[e*simd.PadLen : (e+1)*simd.PadLen] }

	// time runs one full pass per sample and returns the median ns per
	// block over several passes (the first, cold pass is dropped).
	time1 := func(pass func()) float64 {
		pass()
		var ns []float64
		for i := 0; i < 7; i++ {
			t0 := time.Now()
			pass()
			ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(simdBlocks))
		}
		return Median(ns)
	}
	perBlock := func(k func(e int)) func() {
		return func() {
			for e := 0; e < simdBlocks; e++ {
				k(e)
			}
		}
	}
	into["simd.grad_scalar_ns"] = time1(perBlock(func(e int) {
		simd.GradScalar(m, block(u, e), block(d1, e), block(d2, e), block(d3, e))
	}))
	into["simd.grad_vec4_ns"] = time1(perBlock(func(e int) {
		simd.GradVec4(m, &cols, block(u, e), block(d1, e), block(d2, e), block(d3, e))
	}))
	into["simd.grad_blas_ns"] = time1(perBlock(func(e int) {
		simd.GradBlas(simd.SgemmRef, m, block(u, e), block(d1, e), block(d2, e), block(d3, e), scrIn, scrOut)
	}))
	into["simd.grad_fused_ns"] = time1(perBlock(func(e int) {
		simd.GradFused(m, block(u, e), block(d1, e), block(d2, e), block(d3, e))
	}))
	// The transpose stage reads three flux blocks; reuse the gradient
	// outputs as its inputs, exactly as the solver chains them.
	out := make([]float32, n)
	into["simd.gradt_fused_ns"] = time1(perBlock(func(e int) {
		simd.GradTWeightedFused(m, block(d1, e), block(d2, e), block(d3, e), f1, f2, f3, block(out, e))
	}))
	into["simd.grad_fused_batch4_ns"] = time1(func() {
		for e := 0; e < simdBlocks; e += 4 {
			simd.ApplyDGradBatch(m, u[e*simd.PadLen:], d1[e*simd.PadLen:], d2[e*simd.PadLen:], d3[e*simd.PadLen:], 4)
		}
	})
	into["simd.grad_flops"] = gradFlops
	into["simd.grad_vec4_gflops"] = gradFlops / into["simd.grad_vec4_ns"]
}

// mpiMicro times a stand-alone two-rank Isend/Irecv/Wait exchange of
// floats-sized messages, microseconds per exchange on one rank.
func mpiMicro(floats int) float64 {
	const rounds = 2000
	if floats < 1 {
		floats = 1
	}
	w := mpi.NewWorld(2)
	var wall [2]time.Duration
	w.Run(func(c *mpi.Comm) {
		buf := make([]float32, floats)
		peer := 1 - c.Rank()
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			req := c.Irecv(peer, i)
			c.Isend(peer, i, buf)
			req.Wait()
		}
		wall[c.Rank()] = time.Since(t0)
	})
	return float64(max(wall[0], wall[1]).Microseconds()) / rounds
}

// shape is one mesh/run shape of a workload with the scenario and
// station set the decomposed run drives through it.
type shape struct {
	cfg core.Config
	sc  Scenario
	sts []stations.Station
	// legacyIO also prices the legacy file handoff on this shape.
	legacyIO bool
	// writeSem also writes the .sem text output.
	writeSem bool
	// twinOf names the daemon job whose streamed output the shape's
	// seismograms must equal bit for bit (service_burst only).
	twinOf string
}

// shapes returns the decomposed-run shapes of a workload.
func (c *runCtx) shapes(workload string, scs []Scenario) ([]shape, error) {
	var out []shape
	add := func(spec service.JobSpec, sh shape) error {
		cfg, err := sessionSpec(spec, c.workers)
		sh.cfg = cfg
		out = append(out, sh)
		return err
	}
	switch workload {
	case PremFullSolve:
		sc := scs[0]
		return out, firstErr(add(premSpec(c.sz), shape{sc: sc, sts: append(stations.ReferenceStations(), sc.Near...)}))
	case MeshSetup:
		var err error
		for i, spec := range setupSpecs(c.sz) {
			err = firstErr(err, add(spec, shape{sc: scs[i], sts: scs[i].Near, legacyIO: true}))
		}
		return out, err
	case SlicedStations:
		sc := scs[0]
		sts := append(stations.GlobalNetwork(c.sz.SlicedStationCount), sc.Near...)
		return out, firstErr(add(slicedSpec(c.sz), shape{sc: sc, sts: sts, writeSem: true}))
	case ServiceBurst:
		// One warm job per compatibility key, as its one-shot twin.
		warm := burstJobs(c.sz, scs[8:16], "warm")
		seen := map[int]bool{}
		var err error
		for i, job := range warm {
			k := job.Steps*2 + btoi(job.Attenuation)
			if seen[k] {
				continue
			}
			seen[k] = true
			cfg, e := service.DirectConfig(job, c.workers)
			err = firstErr(err, e)
			out = append(out, shape{cfg: cfg, sc: scs[8+i], sts: cfg.Stations, twinOf: job.Name})
		}
		return out, err
	}
	return nil, fmt.Errorf("bench: unknown workload %q", workload)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// acc accumulates per-layer numbers over the shapes of a workload.
type acc map[string]float64

// decompose performs what core.NewSession + Session.Run do for one
// shape by calling each layer's public functions directly, each call
// in a span under one root span, then probes the layer functions the
// solver calls internally (halo plan, coloring, overlap splits) on the
// built mesh. It returns the recorded seismograms.
func (c *runCtx) decompose(sh shape, a acc) map[string]*solver.Seismogram {
	cfg := sh.cfg
	var (
		globe   *meshfem.Globe
		res     *solver.Result
		located []stations.Located
		err     error
		clock   = &streamLog{got: map[string]*series{}}
		runWall time.Duration
	)
	if len(sh.sts) > 0 {
		clock.stampOf = sh.sts[0].Name
	}
	c.tr.Do(-1, "bench", "decomposed_rep", func(root int) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		c.tr.Do(root, "meshfem", "Build", func(int) {
			globe, err = meshfem.Build(meshfem.Config{
				NexXi: cfg.NexXi, NProcXi: cfg.NProcXi, Model: cfg.Model,
				Doublings: cfg.Doublings, AutoDoubling: cfg.AutoDoubling,
				TwoPassMaterials: cfg.TwoPassMesher,
			})
		})
		build := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if !c.chk.err(err, "meshfem.Build") {
			return
		}
		a["meshfem.build_s"] += build.Seconds()
		a["meshfem.alloc_mb"] += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		a["meshfem.elements"] += float64(globe.TotalElements())
		a["meshfem.points"] += float64(globe.TotalPoints())

		t0 = time.Now()
		var load mesh.LoadStats
		c.tr.Do(root, "mesh", "ComputeLoadStats", func(int) { load = mesh.ComputeLoadStats(globe.Locals) })
		c.tr.Do(root, "mesh", "ComputeResolutionStats", func(int) {
			mesh.ComputeResolutionStats(globe.Locals, globe.ShortestPeriod)
		})
		a["mesh.stats_s"] += time.Since(t0).Seconds()
		a["mesh.load_imbalance"] = max(a["mesh.load_imbalance"], load.Imbalance)
		t0 = time.Now()
		c.tr.Do(root, "meshio", "MergedHandoff", func(int) {
			a["meshio.mesh_bytes"] += float64(meshio.MergedHandoff(globe.Locals).Bytes)
		})
		a["handoff_s"] += time.Since(t0).Seconds()

		// Source and receivers, as core.Session.solve wires them.
		ev := sh.sc.Event
		var loc meshfem.Location
		c.tr.Do(root, "meshfem", "LocateLatLonDepth", func(int) {
			loc, err = globe.LocateLatLonDepth(ev.LatDeg, ev.LonDeg, ev.DepthM)
		})
		if !c.chk.err(err, "locating event") {
			return
		}
		t0 = time.Now()
		for _, st := range sh.sts {
			c.tr.Do(root, "stations", "LocateFast", func(int) {
				l, e := stations.LocateFast(globe, st, cfg.SnapStations)
				if c.chk.err(e, "stations.LocateFast") {
					located = append(located, l)
				}
			})
		}
		a["stations.locate_total_us"] += float64(time.Since(t0).Microseconds())
		a["stations.located"] += float64(len(sh.sts))
		sim := &solver.Simulation{
			Locals: globe.Locals, Plans: globe.Plans, Model: cfg.Model,
			Sources: []solver.Source{{
				Rank: loc.Rank, Kind: loc.Kind, Elem: loc.Elem, Ref: loc.Ref,
				MomentTensor: ev.CartesianMomentTensor(),
				STF:          solver.GaussianSTF(ev.HalfDurationSec, 2.5*ev.HalfDurationSec),
			}},
			Receivers: stations.ToReceivers(located),
			Opts: solver.Options{
				Dt: cfg.Dt, Steps: cfg.Steps,
				Attenuation: cfg.Attenuation, Rotation: cfg.Rotation, Gravity: cfg.Gravity, OceanLoad: cfg.OceanLoad,
				Kernel: cfg.Kernel, Workers: cfg.Workers, CombinedSolidHalo: cfg.CombinedSolidHalo,
				RecordEvery: cfg.RecordEvery, EnergyEvery: cfg.EnergyEvery,
				LTS: cfg.LTS, LTSMaxRate: cfg.LTSMaxRate,
				// One-sample chunks: the arrival stamps of one station
				// are the step clock.
				StreamChunkSamples: 1,
				OnChunk: func(ch solver.Chunk) {
					if ch.Field == 0 {
						clock.add(ch.Name, ch.Start, ch.X, ch.Y, ch.Z)
					}
				},
			},
		}
		t0 = time.Now()
		c.tr.Do(root, "solver", "Run", func(int) { res, err = solver.Run(sim) })
		runWall = time.Since(t0)
		if !c.chk.err(err, "solver.Run") {
			res = nil
			return
		}
		if sh.writeSem {
			dir := filepath.Join(c.scratch, "sem")
			c.tr.Do(root, "core", "WriteSeismograms", func(int) {
				c.chk.err(core.WriteSeismograms(dir, res), "core.WriteSeismograms")
			})
			c.chk.err(os.RemoveAll(dir), "removing written seismograms")
		}
	})
	if globe == nil || res == nil {
		return nil
	}
	solverMetrics(globe.TotalElements(), res, runWall, clock.stamps, a)
	c.meshProbes(globe, a)
	if sh.legacyIO {
		c.meshioProbe(globe, a)
	}
	// Event location cost on this mesh, averaged over fresh points.
	rng := newRand(1, "locate")
	const locates = 200
	t0 := time.Now()
	for i := 0; i < locates; i++ {
		sc := genScenario(rng, "L")
		c.tr.Do(-1, "meshfem", "LocateLatLonDepth", func(int) {
			_, err = globe.LocateLatLonDepth(sc.Event.LatDeg, sc.Event.LonDeg, sc.Event.DepthM)
		})
		if err != nil {
			c.chk.err(err, "locating a generated event")
		}
	}
	a["locate_event_total_us"] += float64(time.Since(t0).Microseconds())
	a["locate_events"] += locates
	return res.Seismograms
}

// solverMetrics folds one solver.Run result into the accumulator.
func solverMetrics(elements int, res *solver.Result, runWall time.Duration, stamps []time.Time, a acc) {
	p := res.Perf
	loop := p.WallTime.Seconds()
	a["solver.run_s"] += runWall.Seconds()
	a["solver.loop_s"] += loop
	phase := func(ph perf.Phase) float64 { return p.PhaseTotals[ph.String()].Seconds() }
	kp, up := phase(perf.PhaseKernelParallel), phase(perf.PhaseUpdate)
	fs, ff, ot := phase(perf.PhaseForceSolid), phase(perf.PhaseForceFluid), phase(perf.PhaseOther)
	a["solver.kernel_parallel_s"] += kp
	a["solver.update_s"] += up
	a["solver.force_solid_s"] += fs
	a["solver.force_fluid_s"] += ff
	a["solver.other_s"] += ot
	// Rank-summed loop wall outside every compute phase: ranks waiting
	// for the pool, for a core, or inside communication calls.
	a["solver.unattributed_s"] += p.TotalTime.Seconds() - (kp + up + fs + ff + ot)
	var busy time.Duration
	for _, b := range p.WorkerBusy {
		busy += b
	}
	a["worker_busy_s"] += busy.Seconds()
	a["worker_capacity_s"] += float64(p.Workers) * loop
	a["solver.flops"] += float64(p.TotalFlops)
	a["solver.bytes_computed"] += float64(p.TotalBytes)
	a["elem_steps"] += float64(elements * res.Steps * res.NumFields)

	a["mpi.messages"] += float64(res.MPI.Messages)
	a["mpi.bytes"] += float64(res.MPI.BytesSent)
	a["mpi.steps"] += float64(res.Steps)
	a["mpi.virtual_comm_s"] += res.MPI.VirtualCommTime.Seconds()
	a["mpi.hidden_comm_s"] += res.MPI.HiddenCommTime.Seconds()
	a["mpi.exposed_comm_s"] += res.MPI.Exposed().Seconds()
	a["mpi.wall_comm_s"] += res.MPI.CommTime.Seconds()
	a["mpi.max_rank_comm_s"] = max(a["mpi.max_rank_comm_s"], res.MPI.MaxRankCommTime.Seconds())
	a["mpi.busy_s"] += p.BusyTime.Seconds()

	// Step clock: k early and k late step durations from consecutive
	// one-sample chunk arrivals.
	if n := len(stamps) - 1; n >= 1 {
		k := max(1, min(8, n/2))
		early := stamps[k].Sub(stamps[0]).Seconds() * 1e3 / float64(k)
		late := stamps[n].Sub(stamps[n-k]).Seconds() * 1e3 / float64(k)
		a["solver.step_ms_early"] += early
		a["solver.step_ms_late"] += late
		a["step_clocks"]++
	}
}

// meshProbes times the mesh-layer functions the mesher and the solver
// call internally, on the built mesh: the halo plan (inside
// meshfem.Build), and per rank the coloring and the overlap / coupling
// splits (inside every solver.Run).
func (c *runCtx) meshProbes(g *meshfem.Globe, a acc) {
	t0 := time.Now()
	var plans []*mesh.HaloPlan
	var err error
	c.tr.Do(-1, "mesh", "BuildHalo", func(int) { plans, err = mesh.BuildHalo(g.Locals) })
	halo := time.Since(t0).Seconds()
	if !c.chk.err(err, "mesh.BuildHalo") {
		return
	}
	a["mesh.halo_plan_s"] += halo
	for _, p := range plans {
		a["mesh.halo_boundary_points"] += float64(p.BoundaryPoints())
	}
	t0 = time.Now()
	for _, l := range g.Locals {
		c.tr.Do(-1, "mesh", "BuildColoring", func(int) {
			a["mesh.max_colors"] = max(a["mesh.max_colors"], float64(mesh.BuildColoring(l).MaxColors()))
		})
	}
	a["mesh.coloring_s"] += time.Since(t0).Seconds()
	t0 = time.Now()
	for i, l := range g.Locals {
		c.tr.Do(-1, "mesh", "BuildOverlap", func(int) {
			a["outer_fraction_sum"] += mesh.BuildOverlap(l, plans[i]).OuterFraction()
		})
		c.tr.Do(-1, "mesh", "BuildCouplingSplit", func(int) { mesh.BuildCouplingSplit(l, plans[i]) })
	}
	a["mesh.overlap_split_s"] += time.Since(t0).Seconds()
	a["ranks"] += float64(len(g.Locals))
}

// meshioProbe prices the legacy file handoff on a built mesh: write the
// per-rank database into the scratch directory and read it back.
func (c *runCtx) meshioProbe(g *meshfem.Globe, a acc) {
	dir := filepath.Join(c.scratch, "db")
	if !c.chk.err(os.MkdirAll(dir, 0o755), "creating the database directory") {
		return
	}
	defer os.RemoveAll(dir)
	var st meshio.Stats
	var err error
	t0 := time.Now()
	c.tr.Do(-1, "meshio", "WriteAllRanks", func(int) { st, err = meshio.WriteAllRanks(dir, g.Locals, g.Plans) })
	a["meshio.write_s"] += time.Since(t0).Seconds()
	if !c.chk.err(err, "meshio.WriteAllRanks") {
		return
	}
	a["meshio.db_bytes"] += float64(st.Bytes)
	t0 = time.Now()
	var locals []*mesh.Local
	c.tr.Do(-1, "meshio", "ReadAllRanks", func(int) { locals, _, err = meshio.ReadAllRanks(dir, len(g.Locals)) })
	a["meshio.read_s"] += time.Since(t0).Seconds()
	if c.chk.err(err, "meshio.ReadAllRanks") {
		n := 0
		for _, l := range locals {
			n += l.TotalElements()
		}
		c.chk.ok(n == g.TotalElements(), "legacy database read back %d of %d elements", n, g.TotalElements())
	}
}

// traced is the traced run: the kernel micro-run, alternating untraced
// and traced façade reps (their wall ratio is the tracing overhead),
// one decomposed rep per mesh/run shape, and the message micro-run.
func (c *runCtx) traced(opts Options, res *WorkloadResult, scs []Scenario, deadline time.Time) {
	m := map[string]float64{}
	simdMicro(c.sz.SimdBlocks, m)

	tr := NewTracer(opts.Workload)
	var plain, spanned []float64
	extras := map[string][]float64{}
	var last sample
	var longest time.Duration
	for rep := 0; rep == 0 || time.Now().Add(3*longest).Before(deadline); rep++ {
		runtime.GC()
		t0 := time.Now()
		c.tr = nil
		c.def.rep(c, -1, scs)
		plain = append(plain, time.Since(t0).Seconds())

		runtime.GC()
		tr.SetRep(rep)
		c.tr = tr
		t0 = time.Now()
		tr.Do(-1, "bench", "facade_rep", func(root int) { last = c.def.rep(c, root, scs) })
		d := time.Since(t0)
		spanned = append(spanned, d.Seconds())
		longest = max(longest, d)
		for k, v := range last.extra {
			extras[k] = append(extras[k], v)
		}
		if opts.Workload != ServiceBurst {
			extras["core.new_session_s"] = append(extras["core.new_session_s"], last.setup)
			extras["core.run_s"] = append(extras["core.run_s"], last.solve)
			extras["core.first_chunk_s"] = append(extras["core.first_chunk_s"], last.firstChunk)
		}
	}
	res.Reps = len(spanned)
	m["bench.trace_overhead_ratio"] = Median(spanned) / Median(plain)
	for k, vs := range extras {
		m[k] = Median(vs)
	}

	// Decomposed reps: the layers below the façade, one shape at a time.
	shapes, err := c.shapes(opts.Workload, scs)
	a := acc{}
	if c.chk.err(err, "resolving the workload's shapes") {
		for _, sh := range shapes {
			runtime.GC()
			got := c.decompose(sh, a)
			if sh.twinOf != "" && got != nil {
				// The daemon's streamed job must equal its one-shot twin
				// bit for bit.
				streamed := last.byJob[sh.twinOf]
				same := len(streamed) == len(got)
				for name, sg := range got {
					s := streamed[name]
					same = same && s != nil && equal32(s.X, sg.X) && equal32(s.Y, sg.Y) && equal32(s.Z, sg.Z)
				}
				c.chk.ok(same, "job %s: streamed output != its DirectConfig one-shot twin", sh.twinOf)
			}
		}
	}
	c.tr = nil
	finishLayers(m, a)
	if msgs := a["mpi.messages"]; msgs > 0 {
		m["mpi.msg_wall_us"] = mpiMicro(int(a["mpi.bytes"] / msgs / 4))
	}

	// Self times. On service_burst the workload's wall is the façade
	// rep (the decomposed twins run beside it); elsewhere it is the
	// decomposed rep, where the layers are visible one by one.
	spans := tr.Spans()
	rootName := "decomposed_rep"
	if opts.Workload == ServiceBurst {
		rootName = "facade_rep"
	}
	inTree := spansUnder(spans, rootName)
	for layer, d := range LayerSelfTimes(inTree) {
		m[layer+".self_s"] = d.Seconds()
	}
	if total := SpanTotal(inTree, "bench", rootName); total > 0 {
		m["bench.accounted_share"] = 1 - m["bench.self_s"]/total.Seconds()
	}
	if opts.Workload != ServiceBurst {
		m["core.session_overhead_s"] = m["core.new_session_s"] - m["meshfem.build_s"] - m["mesh.stats_s"] - a["handoff_s"]
	}

	for _, pm := range PerLayer {
		res.Metrics[pm.Name] = one(m[pm.Name], pm.Unit)
	}
	res.spans = spans
}

// spansUnder returns the root spans named rootName and everything
// below them.
func spansUnder(spans []Span, rootName string) []Span {
	keep := map[int]bool{}
	var out []Span
	for _, s := range spans { // parents precede children
		if (s.Parent < 0 && s.Layer == "bench" && s.Name == rootName) || keep[s.Parent] {
			keep[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// finishLayers derives the ratio metrics from the accumulated sums.
func finishLayers(m map[string]float64, a acc) {
	for k, v := range a {
		m[k] = v
	}
	m["solver.setup_s"] = a["solver.run_s"] - a["solver.loop_s"]
	if a["worker_capacity_s"] > 0 {
		m["solver.worker_utilization"] = a["worker_busy_s"] / a["worker_capacity_s"]
	}
	if a["solver.bytes_computed"] > 0 {
		m["solver.flop_per_byte"] = a["solver.flops"] / a["solver.bytes_computed"]
	}
	if a["solver.loop_s"] > 0 {
		m["solver.gflops"] = a["solver.flops"] / a["solver.loop_s"] / 1e9
	}
	if a["elem_steps"] > 0 {
		m["solver.us_per_elem_step"] = a["solver.loop_s"] * 1e6 / a["elem_steps"]
	}
	if n := a["step_clocks"]; n > 0 {
		m["solver.step_ms_early"] = a["solver.step_ms_early"] / n
		m["solver.step_ms_late"] = a["solver.step_ms_late"] / n
		if m["solver.step_ms_early"] > 0 {
			m["solver.late_over_early"] = m["solver.step_ms_late"] / m["solver.step_ms_early"]
		}
	}
	if a["mpi.steps"] > 0 {
		m["mpi.messages_per_step"] = a["mpi.messages"] / a["mpi.steps"]
		m["mpi.bytes_per_step"] = a["mpi.bytes"] / a["mpi.steps"]
	}
	if a["mpi.busy_s"] > 0 {
		m["mpi.comm_fraction"] = a["mpi.exposed_comm_s"] / a["mpi.busy_s"]
	}
	m["meshfem.build_self_s"] = a["meshfem.build_s"] - a["mesh.halo_plan_s"]
	if a["meshfem.elements"] > 0 {
		m["meshfem.us_per_element"] = a["meshfem.build_s"] * 1e6 / a["meshfem.elements"]
	}
	if a["locate_events"] > 0 {
		m["meshfem.locate_event_us"] = a["locate_event_total_us"] / a["locate_events"]
	}
	if a["stations.located"] > 0 {
		m["stations.locate_us"] = a["stations.locate_total_us"] / a["stations.located"]
	}
	if a["ranks"] > 0 {
		m["mesh.outer_fraction"] = a["outer_fraction_sum"] / a["ranks"]
	}
	if a["meshio.write_s"] > 0 {
		m["meshio.write_mb_per_s"] = a["meshio.db_bytes"] / (1 << 20) / a["meshio.write_s"]
	}
}
