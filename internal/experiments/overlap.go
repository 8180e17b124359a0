package experiments

import (
	"fmt"
	"strings"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/perf"
	"specglobe/internal/perfmodel"
	"specglobe/internal/solver"
)

// The OVERLAP experiment measures the paper's central scaling
// technique: hiding halo-exchange latency behind computation by
// computing outer (boundary) elements first, posting non-blocking
// sends/receives, and computing inner elements while messages are in
// flight. It runs the simulation across rank counts and reports the
// exposed communication time and comm fraction against the blocking
// baseline, next to the fraction of elements that are outer (the
// non-overlappable work).
//
// The baseline is read off the same run: the virtual interconnect
// charges each message the same whether it arrives through a blocking
// receive or a completed Irecv, and the message set does not depend on
// the schedule, so a blocking schedule would expose exactly the run's
// whole virtual comm time.

// OverlapRow is one configuration, overlapped vs the blocking baseline.
type OverlapRow struct {
	P   int
	Res int
	// OuterFrac is the mean fraction of elements classified outer.
	OuterFrac float64
	// Exposed communication time summed over ranks (seconds): virtual
	// network time left on the critical path after overlap, and all of
	// it for the blocking baseline.
	ExposedOn, ExposedOff float64
	// Hidden virtual transfer time under the overlapped schedule.
	HiddenOn float64
	// Comm fractions of the solver main loop, overlapped and blocking
	// (BlockingCommFraction).
	FracOn, FracOff float64
}

// OverlapResult reproduces the overlap ablation.
type OverlapResult struct {
	Rows []OverlapRow
}

// BlockingCommFraction is the comm fraction the blocking baseline
// reports for the run r measured: the hidden time moves from
// busy-as-computation to exposed communication,
// (exposed + hidden) / (busy + hidden).
func BlockingCommFraction(r perf.Report) float64 {
	if d := r.BusyTime + r.HiddenCommTime; d > 0 {
		return float64(r.TotalCommTime()) / float64(d)
	}
	return 0
}

// Overlap sweeps rank counts at fixed resolutions, running each
// simulation once and deriving the blocking baseline from it.
func Overlap(nexList []int, nprocList []int, steps int) (*OverlapResult, error) {
	model := earthmodel.EarthLike()
	out := &OverlapResult{}
	for _, nex := range nexList {
		for _, nproc := range nprocList {
			if nex%nproc != 0 {
				continue
			}
			g, err := buildGlobe(nex, nproc, model)
			if err != nil {
				return nil, err
			}
			src, err := centralSource(g)
			if err != nil {
				return nil, err
			}
			on, err := solver.Run(&solver.Simulation{
				Locals: g.Locals, Plans: g.Plans, Model: model,
				Sources: []solver.Source{src},
				Opts:    solver.Options{Steps: steps},
			})
			if err != nil {
				return nil, err
			}
			outerFrac := 0.0
			for rank, l := range g.Locals {
				outerFrac += mesh.BuildOverlap(l, g.Plans[rank]).OuterFraction()
			}
			outerFrac /= float64(len(g.Locals))
			out.Rows = append(out.Rows, OverlapRow{
				P:          g.Decomp.NumRanks(),
				Res:        nex,
				OuterFrac:  outerFrac,
				ExposedOn:  on.MPI.Exposed().Seconds(),
				ExposedOff: on.MPI.VirtualCommTime.Seconds(),
				HiddenOn:   on.MPI.HiddenCommTime.Seconds(),
				FracOn:     on.Perf.CommFraction,
				FracOff:    BlockingCommFraction(on.Perf),
			})
		}
	}
	return out, nil
}

// OverlapMachineRow is one catalog machine's live overlap measurement.
type OverlapMachineRow struct {
	Machine   string
	LatencyUS float64
	LinkBWGBs float64
	// Exposed/Hidden virtual comm (summed over ranks, seconds) under
	// the overlapped schedule, and the resulting comm fraction.
	Exposed, Hidden float64
	Frac            float64
}

// OverlapMachinesResult sweeps the machine catalog's interconnects.
type OverlapMachinesResult struct {
	P, Res, Steps int
	Rows          []OverlapMachineRow
}

// OverlapMachines reruns the overlapped schedule at one configuration
// with each catalog machine's virtual interconnect — the per-machine
// extrapolation hook: a slower link leaves more transfer time to hide,
// a faster one shrinks both exposed and hidden comm.
func OverlapMachines(nex, nproc, steps int) (*OverlapMachinesResult, error) {
	model := earthmodel.EarthLike()
	g, err := buildGlobe(nex, nproc, model)
	if err != nil {
		return nil, err
	}
	src, err := centralSource(g)
	if err != nil {
		return nil, err
	}
	out := &OverlapMachinesResult{P: g.Decomp.NumRanks(), Res: nex, Steps: steps}
	for _, m := range perfmodel.Catalog() {
		res, err := solver.Run(&solver.Simulation{
			Locals: g.Locals, Plans: g.Plans, Model: model,
			Sources: []solver.Source{src},
			Opts: solver.Options{
				Steps: steps, Network: m.Net(),
			},
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, OverlapMachineRow{
			Machine: m.Name, LatencyUS: m.LatencyUS, LinkBWGBs: m.LinkBWGBs,
			Exposed: res.MPI.Exposed().Seconds(),
			Hidden:  res.MPI.HiddenCommTime.Seconds(),
			Frac:    res.Perf.CommFraction,
		})
	}
	return out, nil
}

// String renders the per-machine overlap table.
func (r *OverlapMachinesResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "OVERLAP/machines: overlapped schedule per catalog interconnect (P=%d, res=%d, %d steps)\n",
		r.P, r.Res, r.Steps)
	fmt.Fprintf(&b, "  %-9s %7s %8s %12s %12s %9s\n",
		"machine", "lat", "bw", "exposed(s)", "hidden(s)", "frac")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s %5.1fus %5.2fGB/s %11.6fs %11.6fs %8.2f%%\n",
			row.Machine, row.LatencyUS, row.LinkBWGBs, row.Exposed, row.Hidden, 100*row.Frac)
	}
	return b.String()
}

// String renders the overlap ablation table.
func (r *OverlapResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "OVERLAP: exposed communication — overlapped schedule vs blocking baseline (off = all virtual comm exposed)\n")
	fmt.Fprintf(&b, "  %6s %6s %7s %12s %12s %12s %9s %9s\n",
		"P", "res", "outer%", "exposed-on", "exposed-off", "hidden-on", "frac-on", "frac-off")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %6d %6d %6.1f%% %11.6fs %11.6fs %11.6fs %8.2f%% %8.2f%%\n",
			row.P, row.Res, 100*row.OuterFrac,
			row.ExposedOn, row.ExposedOff, row.HiddenOn,
			100*row.FracOn, 100*row.FracOff)
	}
	b.WriteString("  paper: outer-first scheduling with non-blocking exchanges keeps the\n")
	b.WriteString("  communication fraction at 1.9%-4.2% out to 62K cores (section 5)\n")
	return b.String()
}
