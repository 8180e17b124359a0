package experiments

import (
	"fmt"
	"strings"

	"specglobe/internal/perf"
	"specglobe/internal/perfmodel"
	"specglobe/internal/solver"
)

// The BATCH ablation measures multi-source ensemble batching: S
// independent wavefields advanced through ONE time loop over one shared
// mesh. Per element sweep, the mesh-static data (Ibool, the nine metric
// derivatives, Jacobian, materials — about 7 KB per element) streams
// once and all S fields' dynamic state works against it, so the counted
// arithmetic intensity of the force phases rises with S:
//
//	AI(S) = S * Flop_elem / (Static + S * Dynamic)
//
// and the halo exchange sends one aggregated message per neighbor (S x
// payload, 1 x latency, 1/S the per-field message count). The
// comparable throughput metric is source-steps/sec = steps * S / wall:
// a batched run beats S sequential runs exactly when its
// source-steps/sec exceeds the single-source steps/sec. Each field's
// arithmetic is untouched by batching, so every batched seismogram is
// bit-identical to its single-source counterpart; S = 1 degenerates to
// the unbatched solver exactly.

// BatchRow is one (mesh, kernel, S) measurement.
type BatchRow struct {
	Mesh   string
	Kernel solver.Kernel
	// Sources is the ensemble size S.
	Sources int
	// StepsPerSec is raw time steps over wall time (falls with S).
	StepsPerSec float64
	// SourceStepsPerSec is steps * S over wall time, the aggregate
	// ensemble throughput.
	SourceStepsPerSec float64
	// Speedup is SourceStepsPerSec over the S=1 row of the same (mesh,
	// kernel) — the advantage over S sequential single-source runs.
	Speedup float64
	// SolidAI and FluidAI are the counted force-phase arithmetic
	// intensities; batching raises them by amortizing static bytes.
	SolidAI, FluidAI float64
	// Force positions the force kernels on the local-machine roofline.
	Force perfmodel.RooflinePoint
}

// BatchResult is the ensemble-batching ablation.
type BatchResult struct {
	Steps   int
	Workers int
	Machine perfmodel.Machine
	Rows    []BatchRow
}

// BatchAblation sweeps ensemble size x kernel on the box and doubled
// globe meshes at a fixed worker count, one batched solver run per
// cell. All S sources of a cell share the reference source's position
// and mechanism (fields are independent either way; identical sources
// make any cross-field leak visible as identical-output violations in
// the tests).
func BatchAblation(boxN, globeNex, steps int, sizes []int, workers int) (*BatchResult, error) {
	meshes, err := kernRoofMeshes(boxN, globeNex)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = 1
	}
	out := &BatchResult{Steps: steps, Workers: workers, Machine: perfmodel.MeasureLocalMachine()}
	kernels := []solver.Kernel{solver.KernelScalar, solver.KernelVec4}
	// Keep the faster of two runs per cell (warm-up + noise, as in
	// KERNROOF).
	const reps = 2
	for _, m := range meshes {
		for _, kv := range kernels {
			var base float64
			for _, s := range sizes {
				srcs := make([]solver.Source, s)
				for i := range srcs {
					srcs[i] = m.src
					srcs[i].Field = i
				}
				var best *solver.Result
				for rep := 0; rep < reps; rep++ {
					res, err := solver.Run(&solver.Simulation{
						Locals: m.locals, Plans: m.plans, Model: m.model,
						Sources: srcs,
						Opts:    solver.Options{Steps: steps, Kernel: kv, Workers: workers},
					})
					if err != nil {
						return nil, fmt.Errorf("batch %s %v S=%d: %w", m.name, kv, s, err)
					}
					if best == nil || res.Perf.WallTime < best.Perf.WallTime {
						best = res
					}
				}
				row := batchRow(m.name, kv, s, steps, best, out.Machine)
				if s == 1 {
					base = row.SourceStepsPerSec
				}
				if base > 0 {
					row.Speedup = row.SourceStepsPerSec / base
				}
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out, nil
}

// batchRow derives one table row from a batched run's perf report.
func batchRow(name string, kv solver.Kernel, s, steps int, res *solver.Result, m perfmodel.Machine) BatchRow {
	rep := res.Perf
	solid, fluid := perf.PhaseForceSolid.String(), perf.PhaseForceFluid.String()
	forceFlops := rep.PhaseFlops[solid] + rep.PhaseFlops[fluid]
	forceBytes := rep.PhaseBytes[solid] + rep.PhaseBytes[fluid]
	busy := rep.PhaseTotals[perf.PhaseKernelParallel.String()].Seconds()
	return BatchRow{
		Mesh: name, Kernel: kv, Sources: s,
		StepsPerSec:       float64(steps) / rep.WallTime.Seconds(),
		SourceStepsPerSec: res.SourceStepsPerSec,
		SolidAI:           rep.ArithmeticIntensity(solid),
		FluidAI:           rep.ArithmeticIntensity(fluid),
		Force:             perfmodel.RooflineFor(m, 1, forceFlops, forceBytes, busy),
	}
}

// String renders the ensemble-batching table.
func (r *BatchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "BATCH: multi-source ensemble batching, S x kernel (%d steps, workers=%d) on %s (%s)\n",
		r.Steps, r.Workers, r.Machine.Name, r.Machine.Ceilings())
	fmt.Fprintf(&b, "  %-9s %-6s %3s %9s %11s %8s %8s %8s %7s %7s\n",
		"mesh", "kernel", "S", "steps/s", "src-st/s", "speedup", "solidAI", "fluidAI", "%peak", "bound")
	for _, row := range r.Rows {
		sp := "-"
		if row.Speedup > 0 {
			sp = fmt.Sprintf("%.2fx", row.Speedup)
		}
		fmt.Fprintf(&b, "  %-9s %-6s %3d %9.2f %11.2f %8s %8.2f %8.2f %6.1f%% %7s\n",
			row.Mesh, row.Kernel, row.Sources, row.StepsPerSec, row.SourceStepsPerSec,
			sp, row.SolidAI, row.FluidAI, row.Force.PctOfPeak, row.Force.BoundBy)
	}
	b.WriteString("  src-st/s = steps x S / wall: the aggregate ensemble throughput. speedup is\n")
	b.WriteString("  vs S sequential single-source runs (the S=1 row). solidAI rises with S as\n")
	b.WriteString("  S x Flop / (Static + S x Dynamic) bytes — the element-static metric and\n")
	b.WriteString("  material loads stream once for all S fields per sweep, and one aggregated\n")
	b.WriteString("  halo message per neighbor carries all fields (S x payload, 1 x latency)\n")
	return b.String()
}
