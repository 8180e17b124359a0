package experiments

import (
	"fmt"
	"strings"
	"time"

	"specglobe/internal/boxmesh"
	"specglobe/internal/earthmodel"
	"specglobe/internal/perf"
	"specglobe/internal/perfmodel"
	"specglobe/internal/solver"
)

// The KERNROOF ablation crosses the two force-kernel variants with
// worker counts on two meshes (a homogeneous box and a doubled globe)
// and positions each run on the roofline of the host machine, measured
// live by perfmodel.MeasureLocalMachine. The per-phase arithmetic
// intensities come from the analytic flop and streamed-byte counters of
// internal/perf; the force-kernel flop rate uses the pool's busy time
// (phase kernel_parallel — CPU time, so the per-core rate is comparable
// across worker counts) against the single-core roofline. This is the
// quantitative form of the paper's section 4.3 kernel comparison: where
// each implementation sits relative to what the memory system allows.

// KernRoofRow is one (mesh, kernel, workers) measurement.
type KernRoofRow struct {
	Mesh    string
	Kernel  solver.Kernel
	Workers int
	// Loop is the main loop's wall time; StepsPerSec is the steps and
	// Gflops all counted flops over it.
	Loop                Timing
	StepsPerSec, Gflops float64
	ForceStats
}

// ForceStats places a run's force kernels on one core of the measured
// local machine's roofline.
type ForceStats struct {
	// SolidAI and FluidAI are the counted per-phase arithmetic
	// intensities (flop/byte) of the force phases.
	SolidAI, FluidAI float64
	// Flops counts the solid+fluid force flops.
	Flops int64
	// Force is the force-kernel roofline point: Flops and the force
	// bytes against the pool's kernel busy time.
	Force perfmodel.RooflinePoint
}

// KernRoofResult is the kernel x workers roofline sweep.
type KernRoofResult struct {
	Steps   int
	Machine perfmodel.Machine
	Rows    []KernRoofRow
}

// KernRoof runs the sweep: every kernel variant at every worker count
// on each mesh.
func KernRoof(boxN, globeNex, steps int, workers []int) (*KernRoofResult, error) {
	problems, err := kernRoofProblems(boxN, globeNex)
	if err != nil {
		return nil, err
	}
	out := &KernRoofResult{Steps: steps, Machine: perfmodel.MeasureLocalMachine()}
	for _, p := range problems {
		var rows []KernRoofRow
		var runs []func() (time.Duration, error)
		var res []map[time.Duration]*solver.Result
		for _, w := range workers {
			for _, kv := range []solver.Kernel{solver.KernelScalar, solver.KernelVec4} {
				res = append(res, map[time.Duration]*solver.Result{})
				runs = append(runs, loopRun(p, solver.Options{Steps: steps, Kernel: kv, Workers: w}, res[len(rows)]))
				rows = append(rows, KernRoofRow{Mesh: p.name, Kernel: kv, Workers: w})
			}
		}
		t, err := bestOf(runs...)
		if err != nil {
			return nil, fmt.Errorf("kernroof %s: %w", p.name, err)
		}
		for i, row := range rows {
			rep := res[i][t[i].Best].Perf
			row.Loop = t[i]
			row.StepsPerSec = float64(steps) / t[i].Best.Seconds()
			row.Gflops = float64(rep.TotalFlops) / t[i].Best.Seconds() / 1e9
			row.ForceStats = forceStats(rep, out.Machine)
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// loopRun measures p's main loop under opts and records each run's
// result under its reading, so a row reads its busy times from the run
// that bestOf keeps.
func loopRun(p problem, opts solver.Options, runs map[time.Duration]*solver.Result) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		res, err := solve(p, opts)
		if err != nil {
			return 0, err
		}
		runs[res.Perf.WallTime] = res
		return res.Perf.WallTime, nil
	}
}

// kernRoofProblems builds the two sweep problems: a homogeneous box and
// a doubled globe.
func kernRoofProblems(boxN, globeNex int) ([]problem, error) {
	box, err := boxmesh.Build(boxmesh.Config{
		Nx: boxN, Ny: boxN, Nz: boxN,
		Lx: 40e3, Ly: 40e3, Lz: 40e3,
		NRanks: 1,
		Mat:    earthmodel.Material{Rho: 2700, Vp: 8000, Vs: 4500, Qmu: 60, Qkappa: 57823},
	})
	if err != nil {
		return nil, err
	}
	rank, elem, ref, err := box.Locate(20e3, 20e3, 20e3)
	if err != nil {
		return nil, err
	}
	const m0 = 1e15
	boxP := problem{
		name: "box", locals: box.Locals, plans: box.Plans,
		srcs: []solver.Source{{
			Rank: rank, Kind: earthmodel.RegionCrustMantle, Elem: elem, Ref: ref,
			MomentTensor: [3][3]float64{{m0, 0, 0}, {0, m0, 0}, {0, 0, m0}},
			STF:          solver.RickerSTF(1.0, 1.2),
		}},
	}
	_, globe, err := buildGlobe(earthmodel.EarthLike(), globeNex, 1, []float64{5200e3})
	globe.name = "globe-dbl"
	return []problem{boxP, globe}, err
}

// forceStats reads a run's force-phase intensities and roofline point.
// The pool charges force-kernel busy time to kernel_parallel (CPU time
// summed over workers), so flops over that time is a per-core rate
// whatever the worker count; it is compared against one core of m.
func forceStats(rep perf.Report, m perfmodel.Machine) ForceStats {
	solid, fluid := perf.PhaseForceSolid.String(), perf.PhaseForceFluid.String()
	busy := rep.PhaseTotals[perf.PhaseKernelParallel.String()].Seconds()
	flops := rep.PhaseFlops[solid] + rep.PhaseFlops[fluid]
	return ForceStats{
		SolidAI: rep.ArithmeticIntensity(solid),
		FluidAI: rep.ArithmeticIntensity(fluid),
		Flops:   flops,
		Force:   perfmodel.RooflineFor(m, 1, flops, rep.PhaseBytes[solid]+rep.PhaseBytes[fluid], busy),
	}
}

// String renders the roofline table.
func (r *KernRoofResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "KERNROOF: kernel x workers roofline sweep (%d steps) on %s (%s)\n",
		r.Steps, r.Machine.Name, r.Machine.Ceilings())
	fmt.Fprintf(&b, "  %-9s %-6s %3s %9s %8s %10s %8s %8s %8s %7s %7s %7s  %s\n",
		"mesh", "kernel", "W", "steps/s", "Gflop/s", "force-flop", "solidAI", "fluidAI", "force", "%peak", "%roof", "bound", "loop")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s %-6s %3d %9.2f %8.2f %10d %8.2f %8.2f %8.2f %6.1f%% %6.1f%% %7s  %v\n",
			row.Mesh, row.Kernel, row.Workers, row.StepsPerSec, row.Gflops, row.Flops,
			row.SolidAI, row.FluidAI, row.Force.AchievedGflops,
			row.Force.PctOfPeak, row.Force.PctOfRoofline, row.Force.BoundBy, row.Loop)
	}
	b.WriteString("  (steps/s, Gflop/s: main-loop wall; force: force-flop over the fastest loop's pool\n")
	b.WriteString("  busy time, per core; the AI uses the analytic streamed-byte model, so %roof is\n")
	b.WriteString("  the fraction of the ceiling that structure allows)\n")
	return b.String()
}
