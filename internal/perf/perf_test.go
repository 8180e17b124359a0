package perf

import (
	"strings"
	"testing"
	"time"
)

// A beat is charged the wall time since the previous beat or the
// step's Mark, which its phase gets too only when the beat is Inline;
// its Work counts toward its phase either way.
func TestProfilerPhases(t *testing.T) {
	p := NewProfiler(3)
	p.Start()
	p.Mark()
	forces, halo := &Beat{Name: "forces", Phase: PhaseForceSolid, Inline: true}, &Beat{Name: "halo", Phase: PhaseComm}
	time.Sleep(2 * time.Millisecond)
	p.Charge(forces, Work{Flops: 1000, Bytes: 4000})
	time.Sleep(1 * time.Millisecond)
	p.Charge(halo, Work{})
	p.Add(PhaseUpdate, 5*time.Millisecond)
	p.Stop()
	if p.Rank != 3 {
		t.Error("rank lost")
	}
	if p.phases[PhaseForceSolid] < 2*time.Millisecond || p.phases[PhaseForceSolid] != forces.time {
		t.Error("force phase undercounted")
	}
	if p.phases[PhaseComm] != 0 || halo.time < time.Millisecond {
		t.Errorf("a beat not Inline charged its phase %v, beat %v", p.phases[PhaseComm], halo.time)
	}
	if p.phases[PhaseUpdate] != 5*time.Millisecond {
		t.Error("Add not accounted")
	}
	if p.Flops() != 1000 {
		t.Error("flops lost")
	}
	if p.work[PhaseForceSolid].Flops != 1000 || p.work[PhaseUpdate].Flops != 0 {
		t.Error("per-phase flops misattributed")
	}
	if p.Bytes() != 4000 || p.work[PhaseForceSolid].Bytes != 4000 {
		t.Error("bytes lost")
	}
	if p.total < 3*time.Millisecond {
		t.Errorf("total %v too small", p.total)
	}
}

func TestAggregate(t *testing.T) {
	mk := func(rank int, wall time.Duration, comm time.Duration, flops int64) *Profiler {
		p := NewProfiler(rank)
		p.total = wall
		p.phases[PhaseComm] = comm
		p.phases[PhaseForceSolid] = wall - comm
		p.work[PhaseForceSolid].Flops = flops
		return p
	}
	r := Aggregate([]*Profiler{
		mk(0, 100*time.Millisecond, 5*time.Millisecond, 1e6),
		mk(1, 120*time.Millisecond, 3*time.Millisecond, 2e6),
	})
	if r.Ranks != 2 {
		t.Error("rank count")
	}
	if r.WallTime != 120*time.Millisecond {
		t.Errorf("wall %v", r.WallTime)
	}
	if r.TotalTime != 220*time.Millisecond {
		t.Errorf("total %v", r.TotalTime)
	}
	wantFrac := float64(8*time.Millisecond) / float64(220*time.Millisecond)
	if d := r.CommFraction - wantFrac; d > 1e-12 || d < -1e-12 {
		t.Errorf("comm fraction %v want %v", r.CommFraction, wantFrac)
	}
	if r.TotalFlops != 3e6 {
		t.Errorf("flops %v", r.TotalFlops)
	}
	wantSustained := 3e6 / 0.12
	if rel := (r.SustainedFlops - wantSustained) / wantSustained; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("sustained %v want %v", r.SustainedFlops, wantSustained)
	}
}

func TestReportString(t *testing.T) {
	p := NewProfiler(0)
	p.Start()
	p.Mark()
	p.Charge(&Beat{Phase: PhaseForceSolid}, Work{Flops: 12345})
	p.Stop()
	s := Aggregate([]*Profiler{p}).String()
	for _, want := range []string{"1 ranks", "comm frac", "12345"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// Hidden (overlapped) communication must be reported but excluded from
// busy time and the communication fraction: that wall time is already
// counted as computation.
func TestHiddenCommExcludedFromBusy(t *testing.T) {
	p := NewProfiler(0)
	p.total = 100 * time.Millisecond
	p.phases[PhaseForceSolid] = 90 * time.Millisecond
	p.phases[PhaseComm] = 10 * time.Millisecond
	p.phases[PhaseCommHidden] = 40 * time.Millisecond
	r := Aggregate([]*Profiler{p})
	if r.BusyTime != 100*time.Millisecond {
		t.Errorf("busy %v includes hidden comm", r.BusyTime)
	}
	if r.HiddenCommTime != 40*time.Millisecond {
		t.Errorf("hidden %v", r.HiddenCommTime)
	}
	wantFrac := 0.1
	if d := r.CommFraction - wantFrac; d > 1e-12 || d < -1e-12 {
		t.Errorf("comm fraction %v want %v", r.CommFraction, wantFrac)
	}
}

// The pool's kernel CPU time must count as busy time (it replaces the
// rank-side wall time of dispatched sweeps), keeping the communication
// fraction honest when parallel kernels shrink the wall clock.
func TestKernelParallelCountsAsBusy(t *testing.T) {
	p := NewProfiler(0)
	p.total = 50 * time.Millisecond
	p.phases[PhaseKernelParallel] = 80 * time.Millisecond // 2 workers ~ 40ms wall
	p.phases[PhaseComm] = 20 * time.Millisecond
	r := Aggregate([]*Profiler{p})
	if r.BusyTime != 100*time.Millisecond {
		t.Errorf("busy %v, want kernel_parallel included", r.BusyTime)
	}
	wantFrac := 0.2
	if d := r.CommFraction - wantFrac; d > 1e-12 || d < -1e-12 {
		t.Errorf("comm fraction %v want %v", r.CommFraction, wantFrac)
	}
}

// Worker utilization: busy time over workers x wall time.
func TestWorkerUtilization(t *testing.T) {
	p := NewProfiler(0)
	p.total = 100 * time.Millisecond
	r := Aggregate([]*Profiler{p})
	if r.WorkerUtilization() != 0 {
		t.Error("utilization without pool info")
	}
	r.Workers = 2
	r.WorkerBusy = []time.Duration{80 * time.Millisecond, 40 * time.Millisecond}
	if u := r.WorkerUtilization(); u < 0.599 || u > 0.601 {
		t.Errorf("utilization %v want 0.6", u)
	}
}

func TestPhaseNames(t *testing.T) {
	names := map[Phase]string{
		PhaseForceSolid:     "force_solid",
		PhaseForceFluid:     "force_fluid",
		PhaseComm:           "mpi",
		PhaseCommHidden:     "mpi_hidden",
		PhaseKernelParallel: "kernel_parallel",
		PhaseUpdate:         "update",
		PhaseOther:          "other",
	}
	for ph, want := range names {
		if ph.String() != want {
			t.Errorf("phase %d: %q want %q", int(ph), ph.String(), want)
		}
	}
	if Phase(99).String() == "" {
		t.Error("unknown phase should format")
	}
}

func TestDefaultByteCounts(t *testing.T) {
	bc := DefaultByteCounts()
	for name, v := range map[string]int64{
		"SolidElement":    bc.SolidElement,
		"FluidElement":    bc.FluidElement,
		"AttenuationMech": bc.AttenuationMech,
		"SolidDeadPoint":  bc.SolidDeadPoint,
		"FluidDeadPoint":  bc.FluidDeadPoint,
		"SolidPredictor":  bc.SolidPredictor,
		"FluidPredictor":  bc.FluidPredictor,
		"SolidTail":       bc.SolidTail,
		"FluidTail":       bc.FluidTail,
		"Gravity":         bc.Gravity,
		"CouplePoint":     bc.CouplePoint,
		"TractionPoint":   bc.TractionPoint,
		"OceanPoint":      bc.OceanPoint,
		"SourcePoint":     bc.SourcePoint,
	} {
		if v <= 0 {
			t.Errorf("non-positive byte count %s", name)
		}
	}
	// Solid elements stream three fields where fluid streams one; the
	// per-element traffic ratio should sit in the same 2-4x band as the
	// flop ratio.
	ratio := float64(bc.SolidElement) / float64(bc.FluidElement)
	if ratio < 1.5 || ratio > 4 {
		t.Errorf("solid/fluid byte ratio %v implausible", ratio)
	}
	// The solid element kernel should land near the paper's ~0.4 flop/byte
	// regime (section 5 quotes 0.36 for the whole app); the kernel alone
	// is denser but must stay the same order of magnitude.
	ai := float64(DefaultFlopCounts().SolidElement) / float64(bc.SolidElement)
	if ai < 0.3 || ai > 3 {
		t.Errorf("solid element AI %v outside plausible SEM range", ai)
	}
}

func TestReportArithmeticIntensity(t *testing.T) {
	p := NewProfiler(0)
	p.Start()
	p.Mark()
	p.Charge(&Beat{Phase: PhaseForceSolid}, Work{Flops: 9000, Bytes: 3000})
	p.Charge(&Beat{Phase: PhaseUpdate}, Work{Flops: 10})
	p.Stop()
	r := Aggregate([]*Profiler{p})
	if ai := r.ArithmeticIntensity(PhaseForceSolid.String()); ai < 2.999 || ai > 3.001 {
		t.Errorf("AI %v want 3", ai)
	}
	// Zero bytes recorded: AI is undefined, must return 0 not Inf.
	if ai := r.ArithmeticIntensity(PhaseUpdate.String()); ai != 0 {
		t.Errorf("AI with no bytes %v want 0", ai)
	}
	if r.TotalBytes != 3000 {
		t.Errorf("total bytes %d", r.TotalBytes)
	}
	if r.PhaseFlops[PhaseForceSolid.String()] != 9000 {
		t.Errorf("phase flops map %v", r.PhaseFlops)
	}
}

func TestDefaultFlopCounts(t *testing.T) {
	fc := DefaultFlopCounts()
	for name, v := range map[string]int64{
		"SolidElement":   fc.SolidElement,
		"FluidElement":   fc.FluidElement,
		"SolidPredictor": fc.SolidPredictor,
		"FluidPredictor": fc.FluidPredictor,
		"SolidMassDiv":   fc.SolidMassDiv,
		"FluidMassDiv":   fc.FluidMassDiv,
		"Coriolis":       fc.Coriolis,
		"Gravity":        fc.Gravity,
		"SolidCorrector": fc.SolidCorrector,
		"FluidCorrector": fc.FluidCorrector,
		"CouplePoint":    fc.CouplePoint,
		"TractionPoint":  fc.TractionPoint,
		"OceanPoint":     fc.OceanPoint,
		"SourcePoint":    fc.SourcePoint,
	} {
		if v <= 0 {
			t.Errorf("non-positive flop count %s", name)
		}
	}
	// Fluid work is roughly a third of solid work (1 field vs 3) — in
	// the kernels and in every pointwise sweep.
	ratio := float64(fc.SolidElement) / float64(fc.FluidElement)
	if ratio < 2 || ratio > 4 {
		t.Errorf("solid/fluid flop ratio %v implausible", ratio)
	}
	if fc.SolidPredictor != 3*fc.FluidPredictor {
		t.Errorf("solid predictor %d is not 3x the fluid predictor %d",
			fc.SolidPredictor, fc.FluidPredictor)
	}
	if fc.SolidMassDiv != 3*fc.FluidMassDiv || fc.SolidCorrector != 3*fc.FluidCorrector {
		t.Error("solid pointwise sweeps must be 3x their fluid counterparts")
	}
	// The fluid predictor regression: the 2-term Newmark update of the
	// potential is 6 flops, not the 3 the solver once hardcoded.
	if fc.FluidPredictor != 6 {
		t.Errorf("FluidPredictor = %d, want 6", fc.FluidPredictor)
	}
}

// The charge of a sweep of 10 elements × 3 fields whose chunks skipped 7
// visits, every field of 2 elements among them: each performed visit
// costs the visit's flops and dynamic bytes, each skipped one its
// gather, and each element its static bytes once — except an element
// whose every field was skipped, which costs its Ibool read alone. The
// skipped visits and point visits reach the report per phase, summed
// over ranks.
func TestSkipTallyCharge(t *testing.T) {
	c := DefaultByteCounts()
	var tl SkipTally
	tl.Add(Skips{Visits: 4, Elems: 1})
	tl.Add(Skips{Visits: 3, Elems: 1})
	const flops, static, dynamic, gather = 100, 1000, 10, 1
	w := tl.Charge(c, 10, 3, flops, static, dynamic, gather)
	if w.SkippedVisits != 7 || w.Flops != 23*flops {
		t.Errorf("skipped %d, flops %d; want 7, %d", w.SkippedVisits, w.Flops, 23*flops)
	}
	if want := 8*static + 2*c.IboolGather + 23*dynamic + 7*gather; w.Bytes != want {
		t.Errorf("bytes %d, want %d", w.Bytes, want)
	}
	p, q := NewProfiler(0), NewProfiler(1)
	p.Mark()
	q.Mark()
	p.Charge(&Beat{Phase: PhaseForceSolid}, Work{SkippedVisits: w.SkippedVisits})
	q.Charge(&Beat{Phase: PhaseForceSolid}, Work{SkippedVisits: 2})
	q.Charge(&Beat{Phase: PhaseForceFluid}, Work{SkippedVisits: 5})
	p.Charge(&Beat{Phase: PhaseUpdate}, Work{SkippedPoints: 300})
	q.Charge(&Beat{Phase: PhaseUpdate}, Work{SkippedPoints: 12})
	r := Aggregate([]*Profiler{p, q})
	if r.SkippedVisits["force_solid"] != 9 || r.SkippedVisits["force_fluid"] != 5 {
		t.Errorf("SkippedVisits = %v, want force_solid 9, force_fluid 5", r.SkippedVisits)
	}
	if r.SkippedPoints["update"] != 312 {
		t.Errorf("SkippedPoints = %v, want update 312", r.SkippedPoints)
	}
	for _, want := range []string{"9 element visits skipped (zero field)\n", "312 point visits skipped"} {
		if !strings.Contains(r.String(), want) {
			t.Errorf("summary does not report %q:\n%s", want, r)
		}
	}
}

// The per-rank counts: in rank order whatever order the profilers come
// in, summing to the totals exactly, the busiest rank's flops and bytes
// the largest per-rank Flops and Bytes, the imbalance max over mean,
// and all three in the summary.
func TestRankCounts(t *testing.T) {
	var profs []*Profiler
	for _, c := range []struct {
		rank         int
		flops, bytes int64
	}{{2, 300, 10}, {0, 100, 40}, {1, 200, 20}} {
		p := NewProfiler(c.rank)
		p.Mark()
		p.Charge(&Beat{Phase: PhaseForceSolid}, Work{Flops: c.flops / 2, Bytes: c.bytes})
		p.Charge(&Beat{Phase: PhaseUpdate}, Work{Flops: c.flops / 2})
		profs = append(profs, p)
	}
	r := Aggregate(profs)
	var f, b int64
	for i := range r.RankFlops {
		f += r.RankFlops[i]
		b += r.RankBytes[i]
	}
	if f != r.TotalFlops || b != r.TotalBytes {
		t.Errorf("per-rank sums %d flops, %d bytes; totals %d, %d", f, b, r.TotalFlops, r.TotalBytes)
	}
	if r.RankFlops[0] != 100 || r.RankFlops[2] != 300 {
		t.Errorf("RankFlops %v not in rank order", r.RankFlops)
	}
	if r.MaxRankFlops != profs[0].Flops() || r.MaxRankBytes != profs[1].Bytes() {
		t.Errorf("busiest rank %d flops, %d bytes; want %d, %d", r.MaxRankFlops, r.MaxRankBytes, profs[0].Flops(), profs[1].Bytes())
	}
	if r.Imbalance != 1.5 {
		t.Errorf("imbalance %v, want 300 / 200", r.Imbalance)
	}
	if want := "busiest rank: 300 flops, 40 bytes (imbalance 1.50)"; !strings.Contains(r.String(), want) {
		t.Errorf("summary does not report %q:\n%s", want, r)
	}
	if Aggregate([]*Profiler{NewProfiler(0)}).Imbalance != 0 {
		t.Error("imbalance without flops")
	}
}
