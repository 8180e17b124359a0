package experiments

import (
	"fmt"
	"strings"
	"time"

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

// BatchRow is one (mesh, S) measurement on the vec4 kernel.
type BatchRow struct {
	Mesh string
	// Sources is the ensemble size S.
	Sources int
	// Loop is the main loop's wall time.
	Loop Timing
	// StepsPerSec is raw time steps over Loop (falls with S).
	StepsPerSec float64
	// SourceStepsPerSec is steps * S over Loop, the aggregate
	// ensemble throughput.
	SourceStepsPerSec float64
	// Speedup is SourceStepsPerSec over the S=1 row of the same mesh —
	// the advantage over S sequential single-source runs.
	Speedup float64
	// ForceStats: batching raises the intensities by amortizing static
	// bytes.
	ForceStats
}

// BatchResult is the ensemble-batching ablation.
type BatchResult struct {
	Steps   int
	Workers int
	Machine perfmodel.Machine
	Rows    []BatchRow
}

// BatchAblation sweeps ensemble size on the box and doubled globe
// meshes under the production vec4 kernel at a fixed worker count (how
// vec4 compares with scalar is SSE20's and KERNROOF's question). All S
// sources of a cell share the reference source's position and mechanism
// (fields are independent either way; identical sources make any
// cross-field leak visible as identical-output violations in the
// tests).
func BatchAblation(boxN, globeNex, steps int, sizes []int, workers int) (*BatchResult, error) {
	problems, err := kernRoofProblems(boxN, globeNex)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = 1
	}
	out := &BatchResult{Steps: steps, Workers: workers, Machine: perfmodel.MeasureLocalMachine()}
	opts := solver.Options{Steps: steps, Kernel: solver.KernelVec4, Workers: workers}
	for _, p := range problems {
		var runs []func() (time.Duration, error)
		res := make([]map[time.Duration]*solver.Result, len(sizes))
		for i, s := range sizes {
			res[i] = map[time.Duration]*solver.Result{}
			ens := p
			ens.srcs = make([]solver.Source, s)
			for f := range ens.srcs {
				ens.srcs[f] = p.srcs[0]
				ens.srcs[f].Field = f
			}
			runs = append(runs, loopRun(ens, opts, res[i]))
		}
		t, err := bestOf(runs...)
		if err != nil {
			return nil, fmt.Errorf("batch %s: %w", p.name, err)
		}
		var base float64
		for i, s := range sizes {
			row := BatchRow{
				Mesh: p.name, Sources: s, Loop: t[i],
				StepsPerSec:       float64(steps) / t[i].Best.Seconds(),
				SourceStepsPerSec: float64(steps*s) / t[i].Best.Seconds(),
				ForceStats:        forceStats(res[i][t[i].Best].Perf, out.Machine),
			}
			if s == 1 {
				base = row.SourceStepsPerSec
			}
			if base > 0 {
				row.Speedup = row.SourceStepsPerSec / base
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// String renders the ensemble-batching table.
func (r *BatchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "BATCH: multi-source ensemble batching on the vec4 kernel (%d steps, workers=%d) on %s (%s)\n",
		r.Steps, r.Workers, r.Machine.Name, r.Machine.Ceilings())
	fmt.Fprintf(&b, "  %-9s %3s %9s %11s %8s %10s %8s %8s %7s %7s  %s\n",
		"mesh", "S", "steps/s", "src-st/s", "speedup", "force-flop", "solidAI", "fluidAI", "%peak", "bound", "loop")
	for _, row := range r.Rows {
		sp := "-"
		if row.Speedup > 0 {
			sp = fmt.Sprintf("%.2fx", row.Speedup)
		}
		fmt.Fprintf(&b, "  %-9s %3d %9.2f %11.2f %8s %10d %8.2f %8.2f %6.1f%% %7s  %v\n",
			row.Mesh, row.Sources, row.StepsPerSec, row.SourceStepsPerSec,
			sp, row.Flops, row.SolidAI, row.FluidAI, row.Force.PctOfPeak, row.Force.BoundBy, row.Loop)
	}
	b.WriteString("  src-st/s = steps x S / main-loop wall: the aggregate ensemble throughput. speedup is\n")
	b.WriteString("  vs S sequential single-source runs (the S=1 row). solidAI rises with S as\n")
	b.WriteString("  S x Flop / (Static + S x Dynamic) bytes — the element-static metric and\n")
	b.WriteString("  material loads stream once for all S fields per sweep, and one aggregated\n")
	b.WriteString("  halo message per neighbor carries all fields (S x payload, 1 x latency)\n")
	return b.String()
}
