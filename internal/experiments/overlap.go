package experiments

import (
	"fmt"
	"strings"

	"specglobe/internal/perf"
)

// The OVERLAP experiment measures the paper's central scaling
// technique: hiding halo-exchange latency behind computation by
// computing outer (boundary) elements first, posting non-blocking
// sends/receives, and computing inner elements while messages are in
// flight. It reads the rows of CommSweep across rank counts and reports
// the exposed communication time and comm fraction against the blocking
// baseline, next to the fraction of elements that are outer (the
// non-overlappable work). The per-machine view is OVERLAP/joint's
// undoubled rows (lts.go).
//
// The baseline is read off the same run: the virtual interconnect
// charges each message the same whether it arrives through a blocking
// receive or a completed Irecv, and the message set does not depend on
// the schedule, so a blocking schedule would expose exactly the run's
// whole virtual comm time.

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
