package perf

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProfilerPhases(t *testing.T) {
	p := NewProfiler(3)
	p.Start()
	p.Time(PhaseForceSolid, func() { time.Sleep(2 * time.Millisecond) })
	p.Time(PhaseComm, func() { time.Sleep(1 * time.Millisecond) })
	p.Add(PhaseUpdate, 5*time.Millisecond)
	p.AddFlops(PhaseForceSolid, 1000)
	p.AddBytes(PhaseForceSolid, 4000)
	p.Stop()
	if p.Rank != 3 {
		t.Error("rank lost")
	}
	if p.PhaseTime(PhaseForceSolid) < 2*time.Millisecond {
		t.Error("force phase undercounted")
	}
	if p.PhaseTime(PhaseUpdate) != 5*time.Millisecond {
		t.Error("Add not accounted")
	}
	if p.Flops() != 1000 {
		t.Error("flops lost")
	}
	if p.PhaseFlops(PhaseForceSolid) != 1000 || p.PhaseFlops(PhaseUpdate) != 0 {
		t.Error("per-phase flops misattributed")
	}
	if p.Bytes() != 4000 || p.PhaseBytes(PhaseForceSolid) != 4000 {
		t.Error("bytes lost")
	}
	if p.Total() < 3*time.Millisecond {
		t.Errorf("total %v too small", p.Total())
	}
}

func TestAggregate(t *testing.T) {
	mk := func(rank int, wall time.Duration, comm time.Duration, flops int64) *Profiler {
		p := NewProfiler(rank)
		p.total = wall
		p.phases[PhaseComm] = comm
		p.phases[PhaseForceSolid] = wall - comm
		p.flops[PhaseForceSolid] = flops
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
	p.AddFlops(PhaseForceSolid, 12345)
	p.Stop()
	s := Aggregate([]*Profiler{p}).String()
	for _, want := range []string{"1 ranks", "comm frac", "12345"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for r := 0; r < 16; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := NewProfiler(rank)
			p.Start()
			p.AddFlops(PhaseForceSolid, int64(rank))
			p.Stop()
			c.Put(p)
		}(r)
	}
	wg.Wait()
	rep := c.Report()
	if rep.Ranks != 16 {
		t.Errorf("%d ranks collected", rep.Ranks)
	}
	if rep.TotalFlops != 120 {
		t.Errorf("flops %d want 120", rep.TotalFlops)
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
	p.AddFlops(PhaseForceSolid, 9000)
	p.AddBytes(PhaseForceSolid, 3000)
	p.AddFlops(PhaseUpdate, 10)
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
// visits, every field of 2 elements among them, and 5 of the 7 before
// the gather, every field of 1 of those 2 elements: each performed
// visit costs the visit's flops and dynamic bytes, each gather-skipped
// one its gather and each page-skipped one nothing, and each element its
// static bytes once — except an element whose every field was skipped,
// which costs its Ibool read alone, or nothing if no field gathered.
// The skipped visits and point visits reach the report per phase,
// summed over ranks.
func TestSkipTallyCharge(t *testing.T) {
	c := DefaultByteCounts()
	var tl SkipTally
	tl.Add(Skips{Visits: 4, Elems: 1, Pages: 2})
	tl.Add(Skips{Visits: 3, Elems: 1, Pages: 3, PageElems: 1})
	const flops, static, dynamic, gather = 100, 1000, 10, 1
	skipped, pages, f, b := tl.Charge(c, 10, 3, flops, static, dynamic, gather)
	if skipped != 7 || pages != 5 || f != 23*flops {
		t.Errorf("skipped %d, pages %d, flops %d; want 7, 5, %d", skipped, pages, f, 23*flops)
	}
	if want := 8*static + 1*c.IboolGather + 23*dynamic + 2*gather; b != want {
		t.Errorf("bytes %d, want %d", b, want)
	}
	p, q := NewProfiler(0), NewProfiler(1)
	p.AddSkippedVisits(PhaseForceSolid, skipped)
	p.AddPageSkippedVisits(PhaseForceSolid, pages)
	q.AddSkippedVisits(PhaseForceSolid, 2)
	q.AddSkippedVisits(PhaseForceFluid, 5)
	p.AddSkippedPoints(PhaseUpdate, 300)
	q.AddSkippedPoints(PhaseUpdate, 12)
	r := Aggregate([]*Profiler{p, q})
	if r.SkippedVisits["force_solid"] != 9 || r.SkippedVisits["force_fluid"] != 5 {
		t.Errorf("SkippedVisits = %v, want force_solid 9, force_fluid 5", r.SkippedVisits)
	}
	if r.PageSkippedVisits["force_solid"] != 5 || r.PageSkippedVisits["force_fluid"] != 0 {
		t.Errorf("PageSkippedVisits = %v, want force_solid 5, force_fluid 0", r.PageSkippedVisits)
	}
	if r.SkippedPoints["update"] != 312 {
		t.Errorf("SkippedPoints = %v, want update 312", r.SkippedPoints)
	}
	for _, want := range []string{"9 element visits skipped (zero field), 5 without a gather", "312 point visits skipped"} {
		if !strings.Contains(r.String(), want) {
			t.Errorf("summary does not report %q:\n%s", want, r)
		}
	}
}
