// Top-level benchmark harness: one benchmark per table/figure of the
// paper's evaluation, named after the experiment ids in DESIGN.md.
// Run with:
//
//	go test -bench=. -benchmem .
//
// The benchmarks exercise the live mesher/solver at laptop scale; the
// companion command cmd/paperfigs prints the fitted models and
// extrapolations next to the paper's numbers.
package specglobe

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"specglobe/internal/boxmesh"
	"specglobe/internal/earthmodel"
	"specglobe/internal/experiments"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/meshio"
	"specglobe/internal/perf"
	"specglobe/internal/perfmodel"
	"specglobe/internal/renumber"
	"specglobe/internal/solver"
)

func earthLike() earthmodel.Model {
	h := earthmodel.NewHomogeneous(6371e3, earthmodel.Material{
		Rho: 5000, Vp: 10000, Vs: 5500, Qmu: 300, Qkappa: 57823,
	})
	h.ICBRadius = 1221.5e3
	h.CMBRadius = 3480e3
	return h
}

func buildBenchGlobe(b testing.TB, nex, nproc int) *meshfem.Globe {
	b.Helper()
	g, err := meshfem.Build(meshfem.Config{NexXi: nex, NProcXi: nproc, Model: earthLike()})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchSource(b testing.TB, g *meshfem.Globe) solver.Source {
	b.Helper()
	loc, err := g.LocateLatLonDepth(0, 0, 120e3)
	if err != nil {
		b.Fatal(err)
	}
	const m0 = 1e20
	return solver.Source{
		Rank: loc.Rank, Kind: loc.Kind, Elem: loc.Elem, Ref: loc.Ref,
		MomentTensor: [3][3]float64{{m0, 0, 0}, {0, m0, 0}, {0, 0, m0}},
		STF:          solver.GaussianSTF(10, 25),
	}
}

func runSteps(b testing.TB, g *meshfem.Globe, opts solver.Options) *solver.Result {
	b.Helper()
	src := benchSource(b, g)
	res, err := solver.Run(&solver.Simulation{
		Locals: g.Locals, Plans: g.Plans, Model: earthLike(),
		Sources: []solver.Source{src},
		Opts:    opts,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig5DiskSpace regenerates figure 5: the cost of writing the
// legacy mesher->solver database (bytes scale with res^3).
func BenchmarkFig5DiskSpace(b *testing.B) {
	g := buildBenchGlobe(b, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "fig5-bench-")
		if err != nil {
			b.Fatal(err)
		}
		st, err := meshio.WriteAllRanks(dir, g.Locals, g.Plans)
		os.RemoveAll(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(st.Bytes)
	}
}

// BenchmarkFig6CommTime regenerates the figure 6 measurement: the
// communication cost of solver steps across the slice decomposition.
func BenchmarkFig6CommTime(b *testing.B) {
	for _, nproc := range []int{1, 2} {
		b.Run(map[int]string{1: "P6", 2: "P24"}[nproc], func(b *testing.B) {
			g := buildBenchGlobe(b, 8, nproc)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := runSteps(b, g, solver.Options{Steps: 3})
				b.ReportMetric(res.Perf.TotalCommTime().Seconds()/3, "comm-s/step")
			}
		})
	}
}

// BenchmarkFig7RuntimeScaling regenerates figure 7: total solver work
// versus resolution at a fixed step count.
func BenchmarkFig7RuntimeScaling(b *testing.B) {
	for _, nex := range []int{4, 8} {
		b.Run(map[int]string{4: "res4", 8: "res8"}[nex], func(b *testing.B) {
			g := buildBenchGlobe(b, nex, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSteps(b, g, solver.Options{Steps: 3})
			}
		})
	}
}

// BenchmarkTable6Model regenerates the section 6 table from the machine
// catalog and roofline model (analytic; the live calibration runs in
// the experiments package).
func BenchmarkTable6Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := perfmodel.Table6(nil)
		if len(rows) != 6 {
			b.Fatal("table size")
		}
	}
}

// BenchmarkCuthillMcKee reproduces the section 4.2 experiment: solver
// cost under different element orderings. The paper found at most ~5%
// between orderings because point renumbering already removed most
// cache misses.
func BenchmarkCuthillMcKee(b *testing.B) {
	order := func(name string, permute func(g *meshfem.Globe)) {
		b.Run(name, func(b *testing.B) {
			g := buildBenchGlobe(b, 8, 1)
			permute(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSteps(b, g, solver.Options{Steps: 3})
			}
		})
	}
	order("natural", func(g *meshfem.Globe) {})
	order("rcm", func(g *meshfem.Globe) {
		for _, l := range g.Locals {
			for _, r := range l.Regions {
				if r == nil || r.NSpec == 0 || r.IsFluid() {
					continue
				}
				adj := renumber.ElementAdjacency(r)
				if err := renumber.PermuteElements(r, renumber.CuthillMcKee(adj)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	order("multilevel", func(g *meshfem.Globe) {
		for _, l := range g.Locals {
			for _, r := range l.Regions {
				if r == nil || r.NSpec == 0 || r.IsFluid() {
					continue
				}
				adj := renumber.ElementAdjacency(r)
				if err := renumber.PermuteElements(r, renumber.MultilevelCuthillMcKee(adj, 64)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkForceKernel reproduces the section 4.3 comparison at solver
// level: manual vec4 kernels vs plain loops (paper: SSE gains 15-20%).
// The BLAS-with-copies leg is a per-block time in internal/simd.
func BenchmarkForceKernel(b *testing.B) {
	for _, kv := range []struct {
		name string
		k    solver.Kernel
	}{{"vec4", solver.KernelVec4}, {"scalar", solver.KernelScalar}} {
		b.Run(kv.name, func(b *testing.B) {
			g := buildBenchGlobe(b, 8, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSteps(b, g, solver.Options{Steps: 3, Kernel: kv.k})
			}
		})
	}
}

// BenchmarkAttenuationOnOff reproduces the section 6 experiment: the
// run-time factor of turning attenuation on (paper: 1.8x).
func BenchmarkAttenuationOnOff(b *testing.B) {
	for _, mode := range []struct {
		name string
		att  bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			g := buildBenchGlobe(b, 8, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSteps(b, g, solver.Options{Steps: 3, Attenuation: mode.att,
					AttenuationBand: [2]float64{0.001, 0.05}})
			}
		})
	}
}

// BenchmarkMesherTwoPass reproduces section 4.4 item 1: the legacy
// mesher ran its generation twice (factor ~2).
func BenchmarkMesherTwoPass(b *testing.B) {
	for _, mode := range []struct {
		name    string
		twoPass bool
	}{{"merged", false}, {"legacy", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := meshfem.Build(meshfem.Config{
					NexXi: 8, NProcXi: 1, Model: earthLike(),
					TwoPassMaterials: mode.twoPass,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIOModes reproduces section 4.1: legacy file database vs
// merged in-memory handoff.
func BenchmarkIOModes(b *testing.B) {
	g := buildBenchGlobe(b, 4, 1)
	b.Run("legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dir, err := os.MkdirTemp("", "io-bench-")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := meshio.WriteAllRanks(dir, g.Locals, g.Plans); err != nil {
				b.Fatal(err)
			}
			if _, _, err := meshio.ReadAllRanks(dir, len(g.Locals)); err != nil {
				b.Fatal(err)
			}
			os.RemoveAll(dir)
		}
	})
	b.Run("merged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = meshio.MergedHandoff(g.Locals)
		}
	})
}

// BenchmarkCombinedHalo reproduces the 33% message-count optimization:
// crust/mantle and inner core exchanged in one message per neighbor.
func BenchmarkCombinedHalo(b *testing.B) {
	for _, mode := range []struct {
		name     string
		combined bool
	}{{"separate", false}, {"combined", true}} {
		b.Run(mode.name, func(b *testing.B) {
			g := buildBenchGlobe(b, 8, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := runSteps(b, g, solver.Options{Steps: 3, CombinedSolidHalo: mode.combined})
				b.ReportMetric(float64(res.MPI.Messages)/3, "msgs/step")
			}
		})
	}
}

// BenchmarkOverlapComms reproduces the paper's central scaling
// technique: outer-element forces first, non-blocking halo exchange,
// inner elements while messages are in flight. The reported metrics are
// the exposed (non-overlapped) virtual communication time per step,
// which the overlapped schedule must keep below the blocking baseline,
// and that baseline, read off the same run: a blocking schedule exposes
// all of the run's virtual comm time.
func BenchmarkOverlapComms(b *testing.B) {
	g := buildBenchGlobe(b, 8, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runSteps(b, g, solver.Options{Steps: 3})
		b.ReportMetric(res.MPI.Exposed().Seconds()/3, "exposed-comm-s/step")
		b.ReportMetric(res.MPI.VirtualCommTime.Seconds()/3, "blocking-comm-s/step")
		b.ReportMetric(100*res.Perf.CommFraction, "comm-%")
		b.ReportMetric(100*experiments.BlockingCommFraction(res.Perf), "blocking-comm-%")
	}
}

// BenchmarkHybridWorkers sweeps the shared worker pool at a fixed rank
// count (the HYBRID ablation): steps/sec must rise with workers on a
// multi-core host while the exposed-comm fraction creeps up (parallel
// kernels shrink the window that hides halo traffic). Results are
// bit-identical across the sweep.
func BenchmarkHybridWorkers(b *testing.B) {
	g := buildBenchGlobe(b, 8, 1)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				const steps = 3
				res := runSteps(b, g, solver.Options{Steps: steps, Workers: w})
				// Perf.WallTime covers the solver main loop only, so
				// the metric excludes the serial setup (mass assembly,
				// coloring, pool spin-up) that does not scale with
				// workers.
				b.ReportMetric(steps/res.Perf.WallTime.Seconds(), "steps/sec")
				b.ReportMetric(100*res.Perf.CommFraction, "exposed-comm-%")
				b.ReportMetric(100*res.Perf.WorkerUtilization(), "worker-util-%")
			}
		})
	}
}

// benchEnv records the execution environment of a BENCH snapshot, so a
// trajectory point can be judged against the host it was measured on.
// It is embedded in every snapshot schema, flattening to the top-level
// keys — `date` and `gomaxprocs` predate it, `num_cpu` and `go_version`
// are additions older snapshots lack; any reader must treat them as
// optional rather than failing on their absence.
type benchEnv struct {
	Date       string `json:"date"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

func currentBenchEnv() benchEnv {
	return benchEnv{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
}

// writeBenchJSON writes one snapshot file with the shared formatting.
func writeBenchJSON(t *testing.T, path string, snap any) {
	t.Helper()
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// benchSnapshot is the schema of BENCH_PR2.json: the perf-trajectory
// data point for the hybrid worker pool (serial vs Workers=4 steps/sec
// on the BenchmarkHybridWorkers configuration).
type benchSnapshot struct {
	PR        int    `json:"pr"`
	Benchmark string `json:"benchmark"`
	benchEnv
	Nex                 int     `json:"nex"`
	Ranks               int     `json:"ranks"`
	Steps               int     `json:"steps"`
	SerialStepsPerSec   float64 `json:"serial_steps_per_sec"`
	Workers4StepsPerSec float64 `json:"workers4_steps_per_sec"`
	Speedup             float64 `json:"speedup"`
	SerialExposedFrac   float64 `json:"serial_exposed_comm_frac"`
	Workers4ExposedFrac float64 `json:"workers4_exposed_comm_frac"`
	Note                string  `json:"note"`
}

// TestWriteBenchSnapshot regenerates BENCH_PR2.json. It only runs when
// BENCH_SNAPSHOT=1 is set (it measures wall time, which is meaningless
// on a loaded CI runner):
//
//	BENCH_SNAPSHOT=1 go test -run TestWriteBenchSnapshot .
func TestWriteBenchSnapshot(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to rewrite BENCH_PR2.json")
	}
	const nex, steps, reps = 8, 10, 3
	g, err := meshfem.Build(meshfem.Config{NexXi: nex, NProcXi: 1, Model: earthLike()})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(workers int) (stepsPerSec, frac float64) {
		for r := 0; r < reps; r++ { // best-of to shed scheduler noise
			res := runSteps(t, g, solver.Options{Steps: steps, Workers: workers})
			// Main-loop wall time only: the serial setup (mass
			// assembly, coloring, pool spin-up) would dilute the
			// worker speedup the snapshot exists to track.
			if sps := steps / res.Perf.WallTime.Seconds(); sps > stepsPerSec {
				stepsPerSec = sps
				frac = res.Perf.CommFraction
			}
		}
		return stepsPerSec, frac
	}
	s1, f1 := measure(1)
	s4, f4 := measure(4)
	snap := benchSnapshot{
		PR: 2, Benchmark: "BenchmarkHybridWorkers",
		benchEnv: currentBenchEnv(),
		Nex:      nex, Ranks: 6, Steps: steps,
		SerialStepsPerSec: s1, Workers4StepsPerSec: s4, Speedup: s4 / s1,
		SerialExposedFrac: f1, Workers4ExposedFrac: f4,
		Note: "speedup tracks min(workers, cores): ~1.0 on a 1-core host, >=2x expected at workers=4 on 4+ cores",
	}
	writeBenchJSON(t, "BENCH_PR2.json", snap)
	t.Logf("serial %.2f steps/s, workers=4 %.2f steps/s (%.2fx) on GOMAXPROCS=%d",
		s1, s4, s4/s1, runtime.GOMAXPROCS(0))
}

// doublingRadii is the MESHDBL configuration: mid-mantle and outer-core
// doublings for the homogeneous Earth-like model.
var doublingRadii = []float64{5200e3, 3000e3}

func buildBenchGlobeDoubled(b testing.TB, nex, nproc int, doublings []float64) *meshfem.Globe {
	b.Helper()
	g, err := meshfem.Build(meshfem.Config{
		NexXi: nex, NProcXi: nproc, Model: earthLike(), Doublings: doublings,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkDoubling reproduces the MESHDBL ablation at benchmark level:
// the same surface resolution meshed uniformly vs with mesh-doubling
// layers. The doubled mesh must carry fewer elements and fewer halo
// points; the metrics report the halo surface-to-volume ratio and the
// exposed comm fraction next to the steps/sec the smaller mesh buys.
func BenchmarkDoubling(b *testing.B) {
	for _, mode := range []struct {
		name      string
		doublings []float64
	}{{"uniform", nil}, {"doubled", doublingRadii}} {
		b.Run(mode.name, func(b *testing.B) {
			g := buildBenchGlobeDoubled(b, 8, 1, mode.doublings)
			hs := mesh.ComputeHaloStats(g.Locals, g.Plans)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				const steps = 3
				res := runSteps(b, g, solver.Options{Steps: steps})
				b.ReportMetric(steps/res.Perf.WallTime.Seconds(), "steps/sec")
				b.ReportMetric(float64(hs.Elements), "elements")
				b.ReportMetric(hs.SurfacePerVolume, "halo-pts/elem")
				b.ReportMetric(100*res.Perf.CommFraction, "exposed-comm-%")
			}
		})
	}
}

// benchPR3Snapshot is the schema of BENCH_PR3.json: the perf-trajectory
// data point for mesh doubling (uniform vs doubled globe on the
// BenchmarkDoubling configuration).
type benchPR3Snapshot struct {
	PR        int    `json:"pr"`
	Benchmark string `json:"benchmark"`
	benchEnv
	Nex       int       `json:"nex"`
	Ranks     int       `json:"ranks"`
	Steps     int       `json:"steps"`
	Doublings []float64 `json:"doubling_radii_m"`

	UniformElements    int     `json:"uniform_elements"`
	DoubledElements    int     `json:"doubled_elements"`
	UniformHaloPoints  int     `json:"uniform_halo_points"`
	DoubledHaloPoints  int     `json:"doubled_halo_points"`
	UniformHaloSV      float64 `json:"uniform_halo_pts_per_elem"`
	DoubledHaloSV      float64 `json:"doubled_halo_pts_per_elem"`
	UniformStepsPerSec float64 `json:"uniform_steps_per_sec"`
	DoubledStepsPerSec float64 `json:"doubled_steps_per_sec"`
	Speedup            float64 `json:"speedup"`
	UniformExposedFrac float64 `json:"uniform_exposed_comm_frac"`
	DoubledExposedFrac float64 `json:"doubled_exposed_comm_frac"`
	Note               string  `json:"note"`
}

// TestWriteBenchPR3 regenerates BENCH_PR3.json. It only runs when
// BENCH_SNAPSHOT=1 is set (it measures wall time, which is meaningless
// on a loaded CI runner):
//
//	BENCH_SNAPSHOT=1 go test -run TestWriteBenchPR3 .
func TestWriteBenchPR3(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to rewrite BENCH_PR3.json")
	}
	const nex, steps, reps = 8, 10, 3
	measure := func(doublings []float64) (elems, halo int, sv, stepsPerSec, frac float64) {
		g := buildBenchGlobeDoubled(t, nex, 1, doublings)
		hs := mesh.ComputeHaloStats(g.Locals, g.Plans)
		for r := 0; r < reps; r++ { // best-of to shed scheduler noise
			res := runSteps(t, g, solver.Options{Steps: steps})
			if sps := steps / res.Perf.WallTime.Seconds(); sps > stepsPerSec {
				stepsPerSec = sps
				frac = res.Perf.CommFraction
			}
		}
		return hs.Elements, hs.HaloPoints, hs.SurfacePerVolume, stepsPerSec, frac
	}
	ue, uh, usv, us, uf := measure(nil)
	de, dh, dsv, ds, df := measure(doublingRadii)
	snap := benchPR3Snapshot{
		PR: 3, Benchmark: "BenchmarkDoubling",
		benchEnv: currentBenchEnv(),
		Nex:      nex, Ranks: 6, Steps: steps, Doublings: doublingRadii,
		UniformElements: ue, DoubledElements: de,
		UniformHaloPoints: uh, DoubledHaloPoints: dh,
		UniformHaloSV: usv, DoubledHaloSV: dsv,
		UniformStepsPerSec: us, DoubledStepsPerSec: ds, Speedup: ds / us,
		UniformExposedFrac: uf, DoubledExposedFrac: df,
		Note: "doubling cuts elements and halo points at equal surface resolution; " +
			"halo pts/elem drops on the 6-rank chunk decomposition (cube + chunk seams " +
			"coarsen quadratically), and steps/sec rises with the smaller mesh",
	}
	writeBenchJSON(t, "BENCH_PR3.json", snap)
	t.Logf("uniform %d elems %.2f steps/s; doubled %d elems %.2f steps/s (%.2fx)",
		ue, us, de, ds, ds/us)
}

// BenchmarkCommFraction measures the section 5 headline quantity.
func BenchmarkCommFraction(b *testing.B) {
	g := buildBenchGlobe(b, 8, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runSteps(b, g, solver.Options{Steps: 3})
		b.ReportMetric(100*res.Perf.CommFraction, "comm-%")
	}
}

// TestBenchmarkExperimentsSmoke keeps the experiment harness covered by
// `go test` without paying the full sweep cost.
func TestBenchmarkExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := experiments.Fig7([]int{4}, 2); err == nil {
		t.Log("fig7 single-point fit is expected to fail (needs >= 2 samples); got nil")
	}
	r, err := experiments.Fig7([]int{4, 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows %d", len(r.Rows))
	}
}

// BenchmarkAutoDoubling compares the hand-tuned doubling schedule
// against the wavelength-derived one (meshfem.PlanDoublings) on PREM at
// equal NEX: same surface resolution, so steps/sec and the mesh-shape
// metrics isolate what following the velocity profile buys over typing
// radii by hand. The derived mesh must preserve the realized minimum
// points-per-wavelength of the uniform mesh (the governing worst
// element sits in the fine surface layers).
func BenchmarkAutoDoubling(b *testing.B) {
	const nex = 8
	period := meshfem.PaperResolutionPeriod(nex)
	for _, mode := range []struct {
		name string
		cfg  meshfem.Config
	}{
		{"manual", meshfem.Config{NexXi: nex, NProcXi: 1, Model: earthmodel.NewPREM(),
			Doublings: []float64{5200e3, 3000e3}}},
		{"derived", meshfem.Config{NexXi: nex, NProcXi: 1, Model: earthmodel.NewPREM(),
			AutoDoubling: &meshfem.AutoDoubling{}}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			g, err := meshfem.Build(mode.cfg)
			if err != nil {
				b.Fatal(err)
			}
			hs := mesh.ComputeHaloStats(g.Locals, g.Plans)
			rs := mesh.ComputeResolutionStats(g.Locals, period)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				const steps = 3
				res := runPREMSteps(b, g, solver.Options{Steps: steps})
				b.ReportMetric(steps/res.Perf.WallTime.Seconds(), "steps/sec")
				b.ReportMetric(float64(hs.Elements), "elements")
				b.ReportMetric(rs.MinPts, "min-pts/wavelength")
				b.ReportMetric(100*res.Perf.CommFraction, "exposed-comm-%")
			}
		})
	}
}

// runPREMSteps mirrors runSteps for PREM-model globes (the MESHRES
// configurations mesh PREM itself, whose wavelength profile the derived
// schedule follows).
func runPREMSteps(b testing.TB, g *meshfem.Globe, opts solver.Options) *solver.Result {
	b.Helper()
	src := benchSource(b, g)
	res, err := solver.Run(&solver.Simulation{
		Locals: g.Locals, Plans: g.Plans, Model: earthmodel.NewPREM(),
		Sources: []solver.Source{src},
		Opts:    opts,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// benchPR5Snapshot is the schema of BENCH_PR5.json: the perf-trajectory
// data point for wavelength-derived doubling schedules (uniform vs
// hand-tuned vs derived on PREM, at 6 and 24 ranks).
type benchPR5Snapshot struct {
	PR        int    `json:"pr"`
	Benchmark string `json:"benchmark"`
	benchEnv
	Steps int `json:"steps"`
	// Budget is the points-per-wavelength rule; the target period is
	// the paper rule 256*17/NEX per configuration.
	Budget float64       `json:"pts_per_wavelength_budget"`
	Manual []float64     `json:"manual_radii_m"`
	Rows   []benchPR5Row `json:"rows"`
	Note   string        `json:"note"`
}

// benchPR5Row is one (rank count, resolution, schedule) measurement.
type benchPR5Row struct {
	Ranks               int       `json:"ranks"`
	Res                 int       `json:"res"`
	Schedule            string    `json:"schedule"`
	DoublingRadiiM      []float64 `json:"doubling_radii_m"`
	Elements            int       `json:"elements"`
	HaloPoints          int       `json:"halo_points"`
	HaloPerElem         float64   `json:"halo_pts_per_elem"`
	MinPtsPerWavelength float64   `json:"min_pts_per_wavelength"`
	ExposedCommS        float64   `json:"exposed_comm_s"`
	ExposedCommFrac     float64   `json:"exposed_comm_frac"`
}

// TestWriteBenchPR5 regenerates BENCH_PR5.json. It only runs when
// BENCH_SNAPSHOT=1 is set (it measures wall time, which is meaningless
// on a loaded CI runner):
//
//	BENCH_SNAPSHOT=1 go test -run TestWriteBenchPR5 .
func TestWriteBenchPR5(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to rewrite BENCH_PR5.json")
	}
	const steps = 8
	manual := []float64{5200e3, 3000e3}
	r, err := experiments.MeshResolution([][2]int{{8, 1}, {16, 2}}, manual, steps)
	if err != nil {
		t.Fatal(err)
	}
	snap := benchPR5Snapshot{
		PR: 5, Benchmark: "BenchmarkAutoDoubling",
		benchEnv: currentBenchEnv(),
		Steps:    steps, Budget: r.Budget, Manual: manual,
		Note: "wavelength-derived schedules (PlanDoublings on the PREM profile, paper-rule " +
			"period per NEX, 5 pts/wavelength budget) vs hand-tuned radii: the derived " +
			"schedule coarsens as much as the hand-tuned one while guaranteeing the " +
			"points-per-wavelength budget below every doubling; the realized minimum " +
			"stays at the uniform mesh's governing surface element",
	}
	for _, row := range r.Rows {
		snap.Rows = append(snap.Rows, benchPR5Row{
			Ranks: row.P, Res: row.Res, Schedule: row.Schedule,
			DoublingRadiiM: row.Doublings,
			Elements:       row.Elements, HaloPoints: row.HaloPoints,
			HaloPerElem:         row.SurfacePerVolume,
			MinPtsPerWavelength: row.MinPts,
			ExposedCommS:        row.ExposedSec,
			ExposedCommFrac:     row.ExposedFrac,
		})
		// The derived schedule must preserve the uniform mesh's realized
		// resolution while cutting elements; assert it here so a planner
		// regression cannot silently land in the snapshot.
		if row.Schedule == "derived" {
			var uni benchPR5Row
			for _, s := range snap.Rows {
				if s.Ranks == row.P && s.Res == row.Res && s.Schedule == "uniform" {
					uni = s
				}
			}
			if row.Elements >= uni.Elements {
				t.Errorf("P=%d res=%d: derived schedule did not cut elements (%d vs %d)",
					row.P, row.Res, row.Elements, uni.Elements)
			}
			if row.MinPts < uni.MinPtsPerWavelength*0.999 {
				t.Errorf("P=%d res=%d: derived min pts %.3f below uniform %.3f",
					row.P, row.Res, row.MinPts, uni.MinPtsPerWavelength)
			}
		}
	}
	writeBenchJSON(t, "BENCH_PR5.json", snap)
	for _, row := range snap.Rows {
		t.Logf("P=%d res=%d %-8s elems %6d halo %7d min-pts %.2f exposed %.6fs (frac %.4f)",
			row.Ranks, row.Res, row.Schedule, row.Elements, row.HaloPoints,
			row.MinPtsPerWavelength, row.ExposedCommS, row.ExposedCommFrac)
	}
}

// BenchmarkLTS compares the doubled globe under the single-rate
// integrator against clustered local time stepping at the same finest
// dt. The metric is steps-of-finest-level/sec — both variants advance
// the same simulated time per reported step — beside the theoretical
// rate-weighted update reduction the realized speedup is bounded by
// (where virtual halo time dominates, skipping whole exchange rounds
// on dormant levels can push the realized number past the
// element-update bound).
func BenchmarkLTS(b *testing.B) {
	for _, mode := range []struct {
		name string
		lts  bool
	}{{"single-rate", false}, {"lts", true}} {
		b.Run(mode.name, func(b *testing.B) {
			g := buildBenchGlobeDoubled(b, 8, 1, doublingRadii)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				const steps = 3
				res := runSteps(b, g, solver.Options{Steps: steps, LTS: mode.lts})
				b.ReportMetric(steps/res.Perf.WallTime.Seconds(), "finest-steps/sec")
				if res.LTS != nil {
					b.ReportMetric(res.LTS.UpdateReduction, "theory-reduction")
				}
			}
		})
	}
}

// benchPR7Snapshot is the schema of BENCH_PR7.json: the perf-trajectory
// data point for clustered local time stepping (single-rate vs LTS on
// the doubled BenchmarkLTS configuration).
type benchPR7Snapshot struct {
	PR        int    `json:"pr"`
	Benchmark string `json:"benchmark"`
	benchEnv
	Nex       int       `json:"nex"`
	Ranks     int       `json:"ranks"`
	Steps     int       `json:"steps"`
	Doublings []float64 `json:"doubling_radii_m"`

	ElemsByRate          map[int]int64 `json:"elems_by_rate"`
	TheoreticalReduction float64       `json:"theoretical_update_reduction"`
	SingleRateStepsSec   float64       `json:"single_rate_finest_steps_per_sec"`
	LTSStepsSec          float64       `json:"lts_finest_steps_per_sec"`
	Speedup              float64       `json:"speedup"`
	Note                 string        `json:"note"`
}

// TestWriteBenchPR7 regenerates BENCH_PR7.json. It only runs when
// BENCH_SNAPSHOT=1 is set (it measures wall time, which is meaningless
// on a loaded CI runner):
//
//	BENCH_SNAPSHOT=1 go test -run TestWriteBenchPR7 .
func TestWriteBenchPR7(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to rewrite BENCH_PR7.json")
	}
	const nex, steps, reps = 8, 10, 3
	g := buildBenchGlobeDoubled(t, nex, 1, doublingRadii)
	measure := func(lts bool) (stepsPerSec float64, info *solver.LTSInfo) {
		for r := 0; r < reps; r++ { // best-of to shed scheduler noise
			res := runSteps(t, g, solver.Options{Steps: steps, LTS: lts})
			if sps := steps / res.Perf.WallTime.Seconds(); sps > stepsPerSec {
				stepsPerSec = sps
				info = res.LTS
			}
		}
		return stepsPerSec, info
	}
	ss, _ := measure(false)
	ls, info := measure(true)
	if info == nil {
		t.Fatal("LTS run reported no clustering info")
	}
	if len(info.ElemsByRate) < 2 {
		t.Fatalf("doubled globe clustering is single-rate: %v", info.ElemsByRate)
	}
	if info.UpdateReduction <= 1.3 {
		t.Errorf("theoretical reduction %.2f, want > 1.3 on the doubled globe", info.UpdateReduction)
	}
	snap := benchPR7Snapshot{
		PR: 7, Benchmark: "BenchmarkLTS",
		benchEnv: currentBenchEnv(),
		Nex:      nex, Ranks: 6, Steps: steps, Doublings: doublingRadii,
		ElemsByRate:          info.ElemsByRate,
		TheoreticalReduction: info.UpdateReduction,
		SingleRateStepsSec:   ss, LTSStepsSec: ls, Speedup: ls / ss,
		Note: "rate-2^k clusters fire every rate-th step with held interface state; " +
			"theoretical reduction bounds the element-kernel speedup, while dormant " +
			"levels also skip halo rounds, so the realized steps-of-finest-level/sec " +
			"speedup can land on either side of it",
	}
	writeBenchJSON(t, "BENCH_PR7.json", snap)
	t.Logf("single-rate %.2f steps/s, LTS %.2f steps/s (%.2fx, theory %.2fx, rates %v)",
		ss, ls, ls/ss, info.UpdateReduction, info.ElemsByRate)
}

// buildBenchBox builds the single-rank homogeneous box of the BATCH
// ablation (a 40 km crust-mantle cube) plus an interior source at its
// center.
func buildBenchBox(b testing.TB, n int) (*boxmesh.Box, solver.Source) {
	b.Helper()
	const L = 40e3
	box, err := boxmesh.Build(boxmesh.Config{
		Nx: n, Ny: n, Nz: n, Lx: L, Ly: L, Lz: L, NRanks: 1,
		Mat: earthmodel.Material{Rho: 2700, Vp: 8000, Vs: 4500, Qmu: 60, Qkappa: 57823},
	})
	if err != nil {
		b.Fatal(err)
	}
	rank, elem, ref, err := box.Locate(L/2, L/2, L/2)
	if err != nil {
		b.Fatal(err)
	}
	const m0 = 1e15
	return box, solver.Source{
		Rank: rank, Kind: earthmodel.RegionCrustMantle, Elem: elem, Ref: ref,
		MomentTensor: [3][3]float64{{m0, 0, 0}, {0, m0, 0}, {0, 0, m0}},
		STF:          solver.RickerSTF(1.0, 1.2),
	}
}

// ensembleOf replicates src into an S-wide batch, one field per copy.
// Identical sources make any cross-field leak show up as an
// identical-output violation in the correctness tests; for throughput
// the per-field work is the same either way.
func ensembleOf(src solver.Source, s int) []solver.Source {
	srcs := make([]solver.Source, s)
	for i := range srcs {
		srcs[i] = src
		srcs[i].Field = i
	}
	return srcs
}

// BenchmarkBatchedSources measures multi-source ensemble batching on the
// BATCH ablation meshes: S independent wavefields advanced through ONE
// time loop over one shared mesh, so each element's static loads stream
// once for the whole ensemble and each neighbor gets one aggregated halo
// message per exchange. The reported src-steps/sec is steps * S / wall —
// a batched run beats S sequential single-source runs exactly when it
// exceeds the S=1 row of the same kernel.
func BenchmarkBatchedSources(b *testing.B) {
	box, boxSrc := buildBenchBox(b, 10)
	g := buildBenchGlobeDoubled(b, 8, 1, doublingRadii)
	meshes := []struct {
		name   string
		locals []*mesh.Local
		plans  []*mesh.HaloPlan
		model  earthmodel.Model
		src    solver.Source
	}{
		{"box", box.Locals, box.Plans, nil, boxSrc},
		{"globe-dbl", g.Locals, g.Plans, earthLike(), benchSource(b, g)},
	}
	for _, m := range meshes {
		for _, kv := range []solver.Kernel{solver.KernelScalar, solver.KernelVec4} {
			for _, s := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("%s/%s/S%d", m.name, kv, s), func(b *testing.B) {
					srcs := ensembleOf(m.src, s)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						const steps = 3
						res, err := solver.Run(&solver.Simulation{
							Locals: m.locals, Plans: m.plans, Model: m.model,
							Sources: srcs,
							Opts:    solver.Options{Steps: steps, Kernel: kv, Workers: 1},
						})
						if err != nil {
							b.Fatal(err)
						}
						b.ReportMetric(res.SourceStepsPerSec, "src-steps/sec")
						b.ReportMetric(res.Perf.ArithmeticIntensity(perf.PhaseForceSolid.String()), "solid-AI")
					}
				})
			}
		}
	}
}

// benchPR10Row is one SERVICE mode of BENCH_PR10.json.
type benchPR10Row struct {
	Mode              string  `json:"mode"`
	Batches           int     `json:"batches"`
	MaxS              int     `json:"max_ensemble_size"`
	WallSec           float64 `json:"wall_s"`
	JobsPerSec        float64 `json:"jobs_per_sec"`
	SourceStepsPerSec float64 `json:"src_steps_per_sec"`
	Speedup           float64 `json:"speedup_vs_one_shot"`
	CacheBuilds       int     `json:"session_builds,omitempty"`
	CacheHits         int     `json:"session_hits,omitempty"`
}

// benchPR10Snapshot is the schema of BENCH_PR10.json: the
// perf-trajectory data point for the simulation-as-a-service daemon (J
// compatible jobs end-to-end through sequential one-shot core.Run vs
// the batching daemon, on the SERVICE ablation configuration).
type benchPR10Snapshot struct {
	PR        int    `json:"pr"`
	Benchmark string `json:"benchmark"`
	benchEnv
	Nex      int `json:"nex"`
	Steps    int `json:"steps"`
	Jobs     int `json:"jobs"`
	MaxBatch int `json:"max_batch"`
	Workers  int `json:"workers"`

	Rows []benchPR10Row `json:"rows"`
	Note string         `json:"note"`
}

// TestWriteBenchPR10 regenerates BENCH_PR10.json. It only runs when
// BENCH_SNAPSHOT=1 is set (it measures wall time, which is meaningless
// on a loaded CI runner):
//
//	BENCH_SNAPSHOT=1 go test -run TestWriteBenchPR10 .
func TestWriteBenchPR10(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to rewrite BENCH_PR10.json")
	}
	const nex, steps, jobs, maxBatch, workers = 8, 12, 8, 4, 1
	r, err := experiments.Service(nex, steps, jobs, maxBatch, workers)
	if err != nil {
		t.Fatal(err)
	}
	snap := benchPR10Snapshot{
		PR: 10, Benchmark: "SERVICE (experiments.Service configuration)",
		benchEnv: currentBenchEnv(),
		Nex:      nex, Steps: steps, Jobs: jobs, MaxBatch: maxBatch, Workers: workers,
		Note: "src_steps_per_sec = jobs x steps / end-to-end wall, meshing included on " +
			"both sides: a client asking for J seismogram sets pays end-to-end time. " +
			"the daemon margin is dominated by session reuse (one mesh build per " +
			"compatibility key vs one per job) — the S=4 ensemble term alone is the " +
			"BATCH ablation's same-kernel column, ~1.0-1.1x in wall time on this " +
			"cache-resident 1-CPU configuration. every streamed sample is proven " +
			"bit-identical to its direct one-shot run by the service tests and the " +
			"specfemd selftest, so the speedup is not paid for in output fidelity",
	}
	var oneShot, daemon benchPR10Row
	for _, row := range r.Rows {
		out := benchPR10Row{
			Mode: row.Mode, Batches: row.Batches, MaxS: row.MaxS,
			WallSec:    row.Wall.Seconds(),
			JobsPerSec: row.JobsPerSec, SourceStepsPerSec: row.SourceStepsPerSec,
			Speedup:     row.Speedup,
			CacheBuilds: row.CacheBuilds, CacheHits: row.CacheHits,
		}
		snap.Rows = append(snap.Rows, out)
		if row.Mode == "one-shot" {
			oneShot = out
		} else {
			daemon = out
		}
	}
	// The acceptance bar: the daemon workload must deliver >= 1.3x the
	// aggregate throughput of sequential one-shot runs at S=4.
	if daemon.MaxS != maxBatch {
		t.Errorf("daemon never reached a full S=%d ensemble (max %d)", maxBatch, daemon.MaxS)
	}
	if daemon.SourceStepsPerSec < 1.3*oneShot.SourceStepsPerSec {
		t.Errorf("daemon %.2f src-steps/s < 1.3x one-shot %.2f",
			daemon.SourceStepsPerSec, oneShot.SourceStepsPerSec)
	}
	writeBenchJSON(t, "BENCH_PR10.json", snap)
	t.Log("\n" + r.String())
}
