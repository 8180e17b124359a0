package experiments

import (
	"fmt"
	"strings"

	"specglobe/internal/earthmodel"
	"specglobe/internal/perfmodel"
	"specglobe/internal/solver"
)

// The OVERLAP experiment measures the paper's central scaling
// technique: hiding halo-exchange latency behind computation by
// computing outer (boundary) elements first, posting non-blocking
// sends/receives, and computing inner elements while messages are in
// flight. It reads the rows of CommSweep across rank counts and reports
// the exposed communication time and comm fraction against the blocking
// baseline, next to the fraction of elements that are outer (the
// non-overlappable work). The per-machine view is OVERLAP/joint's
// undoubled rows (OverlapJoint).
//
// The baseline is read off the same run: the virtual interconnect
// charges each message the same whether it arrives through a blocking
// receive or a completed Irecv, and the message set does not depend on
// the schedule, so a blocking schedule would expose exactly the run's
// whole virtual comm time.

// BlockingCommFraction is the comm fraction the blocking baseline
// reports for the run res measured: the hidden time moves from
// busy-as-computation to exposed communication,
// virtual / (busy + hidden).
func BlockingCommFraction(res *solver.Result) float64 {
	if d := res.Perf.BusyTime + res.MPI.HiddenCommTime; d > 0 {
		return float64(res.MPI.VirtualCommTime) / float64(d)
	}
	return 0
}

// OverlapTable renders the overlap ablation over a CommSweep: the
// overlapped schedule's exposed time and fraction (on) against the
// blocking baseline (off), which exposes all of TotalComm.
type OverlapTable []CommRow

// String renders the overlap ablation table.
func (t OverlapTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "OVERLAP: exposed communication — overlapped schedule vs blocking baseline (off = all virtual comm exposed)\n")
	fmt.Fprintf(&b, "  %6s %6s %7s %12s %12s %12s %9s %9s\n",
		"P", "res", "outer%", "exposed-on", "exposed-off", "hidden-on", "frac-on", "frac-off")
	for _, row := range t {
		fmt.Fprintf(&b, "  %6d %6d %6.1f%% %11.6fs %11.6fs %11.6fs %8.2f%% %8.2f%%\n",
			row.P, row.Res, 100*row.OuterFrac,
			row.Exposed, row.TotalComm, row.Hidden,
			100*row.Fraction, 100*row.BlockingFrac)
	}
	b.WriteString("  paper: outer-first scheduling with non-blocking exchanges keeps the\n")
	b.WriteString("  communication fraction at 1.9%-4.2% out to 62K cores (section 5)\n")
	return b.String()
}

// --- OVERLAP/joint: doubling x interconnect ------------------------------

// OverlapJointRow is one (machine, doubling) cell of the joint
// extrapolation.
type OverlapJointRow struct {
	Machine   string
	LatencyUS float64
	LinkBWGBs float64
	Doubled   bool
	// Exposed/Hidden virtual comm (summed over ranks, seconds) and the
	// comm fraction under the overlapped schedule.
	Exposed, Hidden float64
	Frac            float64
}

// OverlapJointResult is the joint doubling x interconnect sweep: two
// axes the FIG6/OVERLAP extrapolations otherwise vary one at a time,
// measured together so their interaction is visible in one table
// (doubling shrinks the halo the inner elements must hide; a slower link
// stretches it). Its undoubled rows are the per-machine overlap runs: a
// slower link leaves more transfer time to hide, a faster one shrinks
// both exposed and hidden comm.
type OverlapJointResult struct {
	P, Res, Steps int
	Doublings     []float64
	Rows          []OverlapJointRow
}

// OverlapJoint runs the overlapped schedule at one (nex, nproc)
// configuration for every combination of doubling on/off and catalog
// interconnect.
func OverlapJoint(nex, nproc, steps int, doublings []float64) (*OverlapJointResult, error) {
	model := earthmodel.EarthLike()
	out := &OverlapJointResult{Res: nex, Steps: steps, Doublings: doublings}
	for _, doubled := range []bool{false, true} {
		var dbl []float64
		if doubled {
			dbl = doublings
		}
		g, p, err := buildGlobe(model, nex, nproc, dbl)
		if err != nil {
			return nil, err
		}
		out.P = g.Decomp.NumRanks()
		for _, m := range perfmodel.Catalog() {
			res, err := solve(p, solver.Options{Steps: steps, Network: m.Net()})
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, OverlapJointRow{
				Machine: m.Name, LatencyUS: m.LatencyUS, LinkBWGBs: m.LinkBWGBs,
				Doubled: doubled,
				Exposed: res.MPI.Exposed().Seconds(),
				Hidden:  res.MPI.HiddenCommTime.Seconds(),
				Frac:    res.Perf.CommFraction,
			})
		}
	}
	return out, nil
}

// String renders the joint table.
func (r *OverlapJointResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "OVERLAP/joint: doubling x interconnect, overlapped schedule (P=%d, res=%d, %d steps)\n",
		r.P, r.Res, r.Steps)
	fmt.Fprintf(&b, "  %-9s %7s %8s %8s %12s %12s %9s\n",
		"machine", "lat", "bw", "doubled", "exposed(s)", "hidden(s)", "frac")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s %5.1fus %5.2fGB/s %8v %11.6fs %11.6fs %8.2f%%\n",
			row.Machine, row.LatencyUS, row.LinkBWGBs, row.Doubled,
			row.Exposed, row.Hidden, 100*row.Frac)
	}
	b.WriteString("  doubling shrinks the halo the inner elements must hide, a slower link\n")
	b.WriteString("  stretches it\n")
	return b.String()
}
