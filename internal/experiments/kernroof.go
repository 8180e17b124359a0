package experiments

import (
	"fmt"
	"strings"

	"specglobe/internal/boxmesh"
	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
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
	// StepsPerSec is solver steps over main-loop wall time.
	StepsPerSec float64
	// Gflops is the whole-loop achieved rate (all counted flops over
	// wall time).
	Gflops float64
	// SolidAI and FluidAI are the counted per-phase arithmetic
	// intensities (flop/byte) of the force phases.
	SolidAI, FluidAI float64
	// Force is the force-kernel roofline point: solid+fluid flops and
	// bytes against the pool's kernel busy time, on one core of the
	// measured local machine.
	Force perfmodel.RooflinePoint
}

// KernRoofResult is the kernel x workers roofline sweep.
type KernRoofResult struct {
	Steps   int
	Machine perfmodel.Machine
	Rows    []KernRoofRow
}

// kernRoofMesh is one prebuilt mesh configuration of the sweep.
type kernRoofMesh struct {
	name   string
	locals []*mesh.Local
	plans  []*mesh.HaloPlan
	model  earthmodel.Model
	src    solver.Source
}

// KernRoof runs the sweep: every kernel variant at every worker count
// on each mesh, one solver run per cell.
func KernRoof(boxN, globeNex, steps int, workers []int) (*KernRoofResult, error) {
	meshes, err := kernRoofMeshes(boxN, globeNex)
	if err != nil {
		return nil, err
	}
	out := &KernRoofResult{Steps: steps, Machine: perfmodel.MeasureLocalMachine()}
	kernels := []solver.Kernel{solver.KernelScalar, solver.KernelVec4}
	// Each cell runs twice and keeps the faster run: the first pass
	// faults pages and warms caches, and single short runs on a shared
	// host are too noisy to rank kernels by.
	const reps = 2
	for _, m := range meshes {
		for _, w := range workers {
			for _, kv := range kernels {
				var best *solver.Result
				for rep := 0; rep < reps; rep++ {
					res, err := solver.Run(&solver.Simulation{
						Locals: m.locals, Plans: m.plans, Model: m.model,
						Sources: []solver.Source{m.src},
						Opts:    solver.Options{Steps: steps, Kernel: kv, Workers: w},
					})
					if err != nil {
						return nil, fmt.Errorf("kernroof %s %v workers=%d: %w", m.name, kv, w, err)
					}
					if best == nil || res.Perf.WallTime < best.Perf.WallTime {
						best = res
					}
				}
				out.Rows = append(out.Rows, kernRoofRow(m.name, kv, w, steps, best, out.Machine))
			}
		}
	}
	return out, nil
}

// kernRoofMeshes builds the two sweep meshes: a homogeneous box and a
// doubled globe.
func kernRoofMeshes(boxN, globeNex int) ([]kernRoofMesh, error) {
	var meshes []kernRoofMesh

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
	meshes = append(meshes, kernRoofMesh{
		name: "box", locals: box.Locals, plans: box.Plans,
		src: solver.Source{
			Rank: rank, Kind: earthmodel.RegionCrustMantle, Elem: elem, Ref: ref,
			MomentTensor: [3][3]float64{{m0, 0, 0}, {0, m0, 0}, {0, 0, m0}},
			STF:          solver.RickerSTF(1.0, 1.2),
		},
	})

	model := earthmodel.EarthLike()
	g, err := meshfem.Build(meshfem.Config{
		NexXi: globeNex, NProcXi: 1, Model: model, Doublings: []float64{5200e3},
	})
	if err != nil {
		return nil, err
	}
	src, err := centralSource(g)
	if err != nil {
		return nil, err
	}
	meshes = append(meshes, kernRoofMesh{
		name: "globe-dbl", locals: g.Locals, plans: g.Plans, model: model, src: src,
	})
	return meshes, nil
}

// kernRoofRow derives one table row from a run's perf report.
func kernRoofRow(name string, kv solver.Kernel, w, steps int, res *solver.Result, m perfmodel.Machine) KernRoofRow {
	rep := res.Perf
	solid, fluid := perf.PhaseForceSolid.String(), perf.PhaseForceFluid.String()
	forceFlops := rep.PhaseFlops[solid] + rep.PhaseFlops[fluid]
	forceBytes := rep.PhaseBytes[solid] + rep.PhaseBytes[fluid]
	// The pool charges force-kernel busy time to kernel_parallel (CPU
	// time summed over workers), so flops over that time is a per-core
	// rate whatever the worker count; compare it against one core of
	// the roofline.
	busy := rep.PhaseTotals[perf.PhaseKernelParallel.String()].Seconds()
	return KernRoofRow{
		Mesh: name, Kernel: kv, Workers: w,
		StepsPerSec: float64(steps) / rep.WallTime.Seconds(),
		Gflops:      rep.SustainedFlops / 1e9,
		SolidAI:     rep.ArithmeticIntensity(solid),
		FluidAI:     rep.ArithmeticIntensity(fluid),
		Force:       perfmodel.RooflineFor(m, 1, forceFlops, forceBytes, busy),
	}
}

// String renders the roofline table.
func (r *KernRoofResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "KERNROOF: kernel x workers roofline sweep (%d steps) on %s (%s)\n",
		r.Steps, r.Machine.Name, r.Machine.Ceilings())
	fmt.Fprintf(&b, "  %-9s %-6s %3s %9s %8s %8s %8s %8s %7s %7s %7s\n",
		"mesh", "kernel", "W", "steps/s", "Gflop/s", "solidAI", "fluidAI", "force", "%peak", "%roof", "bound")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s %-6s %3d %9.2f %8.2f %8.2f %8.2f %8.2f %6.1f%% %6.1f%% %7s\n",
			row.Mesh, row.Kernel, row.Workers, row.StepsPerSec, row.Gflops,
			row.SolidAI, row.FluidAI, row.Force.AchievedGflops,
			row.Force.PctOfPeak, row.Force.PctOfRoofline, row.Force.BoundBy)
	}
	b.WriteString("  (force column: solid+fluid kernel flops over pool busy time, per core;\n")
	b.WriteString("  the AI uses the analytic streamed-byte model, so %roof is the fraction of\n")
	b.WriteString("  the ceiling that structure allows)\n")
	return b.String()
}
