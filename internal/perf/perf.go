// Package perf provides the performance instrumentation the paper's
// measurements rely on: per-rank phase timers in the style of IPM
// (Integrated Performance Monitoring — communication vs. computation
// time in the solver main loop) and analytic floating-point operation
// counting in the style of PSiNSlight (the tool used to measure the
// sustained Tflops figures of section 6).
package perf

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Phase labels one accounted section of the solver loop.
type Phase int

const (
	PhaseForceSolid Phase = iota
	PhaseForceFluid
	// PhaseComm is the *exposed* communication time: virtual network
	// time left on the critical path after overlapping with
	// computation (mpi.Stats.Exposed). The hidden share and the full
	// virtual time stay in mpi.Stats alone: the hidden wall time is
	// already counted as computation.
	PhaseComm
	// PhaseKernelParallel is the busy (CPU) time the shared worker pool
	// spent in force-kernel sweeps dispatched by a rank. It is counted
	// in busy time in place of the rank-side wall time of those sweeps:
	// with W workers the same work occupies ~1/W the wall clock, and
	// charging the dispatch wait instead would shrink busy time and
	// inflate the communication fraction as the compute side speeds up.
	PhaseKernelParallel
	PhaseUpdate
	PhaseOther
	numPhases
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseForceSolid:
		return "force_solid"
	case PhaseForceFluid:
		return "force_fluid"
	case PhaseComm:
		return "mpi"
	case PhaseKernelParallel:
		return "kernel_parallel"
	case PhaseUpdate:
		return "update"
	case PhaseOther:
		return "other"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Work is what one beat of a time step did in the analytic model: its
// flops and streamed bytes and the visits it skipped (see Report).
type Work struct {
	Flops, Bytes                 int64
	SkippedVisits, SkippedPoints int64
}

func (w *Work) add(v Work) {
	w.Flops += v.Flops
	w.Bytes += v.Bytes
	w.SkippedVisits += v.SkippedVisits
	w.SkippedPoints += v.SkippedPoints
}

// Beat names one beat of a time step and the phase its Work counts
// toward. Inline charges that phase the beat's wall time too, for a beat
// run inline on the rank; a pool-dispatched beat's phase gets the pool's
// busy time (Add), a halo or record beat's none. A Beat keeps its own
// time, so one profiler alone may charge it.
type Beat struct {
	Name    string
	Phase   Phase
	Inline  bool
	time    time.Duration
	charged bool
}

// Profiler accumulates per-rank timings and analytic work counts. It is
// not concurrency-safe: each rank owns one Profiler.
type Profiler struct {
	Rank    int
	phases  [numPhases]time.Duration
	work    [numPhases]Work
	beats   []*Beat // every beat charged, in first-charge order
	started time.Time
	mark    time.Duration // the end of the last beat, since started
	total   time.Duration
}

// NewProfiler returns a profiler for one rank.
func NewProfiler(rank int) *Profiler { return &Profiler{Rank: rank, beats: make([]*Beat, 0, 32)} }

// Start marks the beginning of the accounted section (the solver main
// loop, in IPM terms).
func (p *Profiler) Start() { p.started = time.Now() }

// Stop closes the accounted section.
func (p *Profiler) Stop() { p.total = time.Since(p.started) }

// Mark opens a step: its first beat begins now.
func (p *Profiler) Mark() { p.mark = time.Since(p.started) }

// Charge closes beat b, which began where the previous beat or the
// step's Mark ended: it adds the wall time since then to the beat, that
// time to b.Phase when b.Inline is set, and w to b.Phase.
func (p *Profiler) Charge(b *Beat, w Work) {
	now := time.Since(p.started) // the monotonic clock alone, cheaper than time.Now
	d := now - p.mark
	p.mark = now
	if !b.charged {
		b.charged = true
		p.beats = append(p.beats, b)
	}
	b.time += d
	if b.Inline {
		p.phases[b.Phase] += d
	}
	p.work[b.Phase].add(w)
}

// Add charges a duration measured outside the profiler: the pool's busy
// time, the virtual communication time.
func (p *Profiler) Add(ph Phase, d time.Duration) { p.phases[ph] += d }

// Flops returns the accumulated operation count over all phases.
func (p *Profiler) Flops() int64 {
	var t int64
	for _, w := range p.work {
		t += w.Flops
	}
	return t
}

// Bytes returns the accumulated traffic count over all phases.
func (p *Profiler) Bytes() int64 {
	var t int64
	for _, w := range p.work {
		t += w.Bytes
	}
	return t
}

// Report aggregates profilers across ranks, the way IPM summarizes a
// parallel run.
type Report struct {
	Ranks int
	// WallTime is the longest per-rank wall time (the run's critical
	// path).
	WallTime time.Duration
	// TotalTime is the sum of wall times over ranks ("total time for
	// all cores" in the paper's models).
	TotalTime time.Duration
	// PhaseTotals sums each phase over all ranks.
	PhaseTotals map[string]time.Duration
	// BusyTime is the sum over ranks of all accounted phases (compute
	// plus exposed communication). The communication phase is the
	// exposed virtual network time (see internal/mpi), so fractions are
	// meaningful even when ranks are goroutines sharing one host.
	BusyTime time.Duration
	// CommFraction is exposed communication time over busy time — the
	// quantity the paper reports as 1.9%-4.2% in section 5.
	CommFraction float64
	// PhaseFlops and PhaseBytes sum the per-phase operation and
	// analytic traffic counts over all ranks; their ratio per phase is
	// the arithmetic intensity the roofline model consumes.
	PhaseFlops map[string]int64
	PhaseBytes map[string]int64
	// TotalFlops sums flops over ranks.
	TotalFlops int64
	// TotalBytes sums the analytic byte traffic over ranks.
	TotalBytes int64
	// SkippedVisits counts, per force phase and summed over ranks and
	// ensemble fields, the element visits that were not run because
	// their result is exactly zero: they gathered an all-zero field (and,
	// with attenuation, had never driven the element's memory variables)
	// and are charged their gather reads, or their region had no live
	// page and was not swept, and are charged nothing. None costs flops.
	SkippedVisits map[string]int64
	// SkippedPoints counts, per phase and summed over ranks and fields,
	// the point visits of the predictor and the tails that found their
	// page quiescent: a dead predictor piece is charged nothing, a dead
	// tail piece its acceleration read, and neither any flops.
	SkippedPoints map[string]int64
	// SustainedFlops is TotalFlops / WallTime in flop/s.
	SustainedFlops float64
	// RankFlops and RankBytes are the per-rank counts in rank order, and
	// MaxRankFlops and MaxRankBytes the busiest rank's — what a step costs
	// with one rank per core. Imbalance is MaxRankFlops over the mean.
	RankFlops, RankBytes       []int64
	MaxRankFlops, MaxRankBytes int64
	Imbalance                  float64
	// Beats sums each beat's wall time over ranks, by name; Unattributed
	// is TotalTime less all of it (the checks and hooks between steps).
	Beats        map[string]time.Duration
	Unattributed time.Duration
	// Workers and WorkerBusy describe the shared kernel worker pool of
	// a hybrid run: pool size and per-worker busy time (len equals
	// Workers). Filled by the pool's owner after Aggregate — the
	// profilers only carry per-rank attribution (kernel_parallel).
	Workers    int
	WorkerBusy []time.Duration
}

// WorkerUtilization returns the mean busy fraction of the pool workers
// over the run's wall time (0 when no pool info was recorded). Low
// utilization at high worker counts means the ranks could not supply
// chunks fast enough — the node-level strong-scaling limit.
func (r Report) WorkerUtilization() float64 {
	if r.Workers == 0 || r.WallTime <= 0 {
		return 0
	}
	var busy time.Duration
	for _, b := range r.WorkerBusy {
		busy += b
	}
	return float64(busy) / (float64(r.Workers) * float64(r.WallTime))
}

// SourceStepsPerSec is the throughput metric of ensemble (multi-source)
// batching: time steps × batched sources divided by wall time. A
// batched run advancing S wavefields per step makes S source-steps of
// progress per step, so this is the number that makes an S-wide batch
// comparable to S sequential single-source runs.
func SourceStepsPerSec(steps, sources int, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(steps) * float64(sources) / wall.Seconds()
}

// ArithmeticIntensity returns flop-per-byte for one phase name, or 0
// when no traffic was attributed to it.
func (r Report) ArithmeticIntensity(phase string) float64 {
	if b := r.PhaseBytes[phase]; b > 0 {
		return float64(r.PhaseFlops[phase]) / float64(b)
	}
	return 0
}

// Aggregate builds a report from per-rank profilers.
func Aggregate(profs []*Profiler) Report {
	r := Report{
		Ranks:         len(profs),
		PhaseTotals:   map[string]time.Duration{},
		PhaseFlops:    map[string]int64{},
		PhaseBytes:    map[string]int64{},
		SkippedVisits: map[string]int64{},
		SkippedPoints: map[string]int64{},
		Beats:         map[string]time.Duration{},
	}
	profs = slices.Clone(profs)
	slices.SortStableFunc(profs, func(a, b *Profiler) int { return a.Rank - b.Rank })
	var beats time.Duration
	for _, p := range profs {
		if p.total > r.WallTime {
			r.WallTime = p.total
		}
		r.TotalTime += p.total
		for ph := Phase(0); ph < numPhases; ph++ {
			w := &p.work[ph]
			r.PhaseTotals[ph.String()] += p.phases[ph]
			r.PhaseFlops[ph.String()] += w.Flops
			r.PhaseBytes[ph.String()] += w.Bytes
			r.SkippedVisits[ph.String()] += w.SkippedVisits
			r.SkippedPoints[ph.String()] += w.SkippedPoints
		}
		for _, b := range p.beats {
			r.Beats[b.Name] += b.time
			beats += b.time
		}
		f, b := p.Flops(), p.Bytes()
		r.RankFlops, r.RankBytes = append(r.RankFlops, f), append(r.RankBytes, b)
		r.TotalFlops += f
		r.TotalBytes += b
		r.MaxRankFlops, r.MaxRankBytes = max(r.MaxRankFlops, f), max(r.MaxRankBytes, b)
	}
	r.Unattributed = r.TotalTime - beats
	for _, d := range r.PhaseTotals {
		r.BusyTime += d
	}
	if r.BusyTime > 0 {
		r.CommFraction = float64(r.PhaseTotals[PhaseComm.String()]) / float64(r.BusyTime)
	}
	if r.WallTime > 0 {
		r.SustainedFlops = float64(r.TotalFlops) / r.WallTime.Seconds()
	}
	if r.TotalFlops > 0 {
		r.Imbalance = float64(r.MaxRankFlops) * float64(r.Ranks) / float64(r.TotalFlops)
	}
	return r
}

// String formats the report like an IPM summary block.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# perf summary: %d ranks\n", r.Ranks)
	fmt.Fprintf(&b, "#   wallclock  : %v\n", r.WallTime)
	fmt.Fprintf(&b, "#   total time : %v (all ranks)\n", r.TotalTime)
	names := make([]string, 0, len(r.PhaseTotals))
	for n := range r.PhaseTotals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "#   %-12s %v\n", n, r.PhaseTotals[n])
	}
	fmt.Fprintf(&b, "#   comm frac  : %.2f%%\n", 100*r.CommFraction)
	fmt.Fprintf(&b, "#   flops      : %d (%.3f Gflop/s sustained)\n",
		r.TotalFlops, r.SustainedFlops/1e9)
	fmt.Fprintf(&b, "#   busiest rank: %d flops, %d bytes (imbalance %.2f)\n",
		r.MaxRankFlops, r.MaxRankBytes, r.Imbalance)
	for _, ph := range []Phase{PhaseForceSolid, PhaseForceFluid} {
		if n := r.SkippedVisits[ph.String()]; n > 0 {
			fmt.Fprintf(&b, "#   %-12s %d element visits skipped (zero field)\n", ph, n)
		}
	}
	if n := r.SkippedPoints[PhaseUpdate.String()]; n > 0 {
		fmt.Fprintf(&b, "#   %-12s %d point visits skipped (quiescent pages)\n", PhaseUpdate, n)
	}
	return b.String()
}

// Skips is one chunk's count of the element visits it skipped because
// they could only add zeros.
type Skips struct {
	// Visits counts the skipped visits and Elems the elements whose
	// every field was skipped.
	Visits, Elems int
}

// SkipTally counts the Skips of the concurrent chunks of one force
// sweep.
type SkipTally struct{ visits, elems atomic.Int64 }

// Add records one chunk's skips.
func (t *SkipTally) Add(s Skips) {
	t.visits.Add(int64(s.Visits))
	t.elems.Add(int64(s.Elems))
}

// Charge returns the work of a sweep of elems elements × fields
// wavefields: a performed visit costs flops and dynamic bytes, a
// skipped one its gather bytes, and an element its static bytes once if
// any field ran and IboolGather if none did.
func (t *SkipTally) Charge(c ByteCounts, elems, fields int, flops, static, dynamic, gather int64) Work {
	skipped, idle := t.visits.Load(), t.elems.Load()
	ran := int64(elems*fields) - skipped
	return Work{
		Flops:         flops * ran,
		Bytes:         static*(int64(elems)-idle) + c.IboolGather*idle + dynamic*ran + gather*skipped,
		SkippedVisits: skipped,
	}
}

// FlopCounts provides the analytic per-element and per-point flop model
// used for PSiNS-style counting: the kernels and the pointwise update
// sweeps are fixed sequences of arithmetic, so operation counts per
// element (or point) per time step are compile-time constants. Every
// pointwise sweep of the solver routes through one of these constants —
// ad-hoc literals at the call sites drifted out of sync with the code
// (the fluid predictor was counted at 3 flops/point for a 6-flop
// update, and the mass divisions, Coriolis/gravity corrections, ocean
// load and correctors were not counted at all), which skewed the
// reported Mflops/s and the FIG6 model fits.
type FlopCounts struct {
	SolidElement int64 // force kernel, per solid element per step
	FluidElement int64 // force kernel, per fluid element per step

	// Newmark predictor: d += dt v + dt²/2 a (2 mul + 2 add per
	// component), v += dt/2 a (1 mul + 1 add), a = 0. Three components
	// for the solid displacement, one for the fluid potential.
	SolidPredictor int64 // per solid grid point per step
	FluidPredictor int64 // per fluid grid point per step

	// Mass division a *= M⁻¹ (one multiply per component).
	SolidMassDiv int64 // per solid grid point per step
	FluidMassDiv int64 // per fluid grid point per step

	// Pointwise corrections fused into the solid update sweep.
	Coriolis int64 // per solid point per step, when rotation is on
	Gravity  int64 // per solid point per step, when gravity tables exist

	// Newmark corrector: v += dt/2 a per component.
	SolidCorrector int64 // per solid grid point per step
	FluidCorrector int64 // per fluid grid point per step

	// Fluid-solid coupling, per boundary-face GLL point per step:
	// CouplePoint is the fluid-side normal-displacement accumulation,
	// TractionPoint the solid-side pressure traction.
	CouplePoint   int64
	TractionPoint int64

	// OceanPoint is the free-surface ocean-load rescale per surface
	// point per step; SourcePoint the source-array injection per
	// element point per active source step.
	OceanPoint  int64
	SourcePoint int64
}

// DefaultFlopCounts returns the operation counts for the NGLL=5 kernels.
func DefaultFlopCounts() FlopCounts {
	const ngll3 = 125
	return FlopCounts{
		// 9 derivative applies + 9 transpose applies, 10 flops per
		// point each, plus ~90 pointwise flops for strain/stress and
		// weight application.
		SolidElement: int64(ngll3 * (9*10 + 9*10 + 90)),
		// 3 + 3 applies plus ~30 pointwise flops.
		FluidElement: int64(ngll3 * (3*10 + 3*10 + 30)),

		SolidPredictor: 3 * (4 + 2), // 3 components × (d update 4 + v update 2)
		FluidPredictor: 4 + 2,       // chi update 4 + chiDot update 2

		SolidMassDiv: 3,
		FluidMassDiv: 1,

		// a_x += 2Ω v_y, a_y -= 2Ω v_x: 2 × (1 mul + 1 add).
		Coriolis: 4,
		// u_r projection (3 mul + 2 add) plus, per component, the
		// shared u_r·r̂ product, deflection, two scalings and two
		// accumulates: 5 + 3×6.
		Gravity: 5 + 3*6,

		SolidCorrector: 3 * 2,
		FluidCorrector: 2,

		// u·n (3 mul + 2 add) + weighted accumulate (1 mul + 1 add).
		CouplePoint: 5 + 2,
		// Shared w·χ̈ product + 3 × (1 mul + 1 sub).
		TractionPoint: 1 + 3*2,

		// a·n (3 mul + 2 add), scale (1 mul + 1 sub), 3 × (1 mul + 1 sub).
		OceanPoint: 5 + 2 + 3*2,
		// stf × arr + accumulate per component.
		SourcePoint: 3 * 2,
	}
}

// ByteCounts is the analytic streamed-traffic model paired with
// FlopCounts: for each accounted sweep, the bytes that move through the
// memory hierarchy per element (or per point) per step, assuming every
// array touched is streamed once per stage (reads and writes both
// count; read-modify-write counts twice). This deliberately counts
// SCRATCH streams as well as global-array gather/scatter traffic — the
// per-element blocks really are read and written once per stage by the
// unfused kernels — so the ratio FlopCounts/ByteCounts is the
// arithmetic intensity of the code as structured, the quantity a
// roofline positions against a machine's peak and bandwidth. It is a
// per-stage streaming model, not a cache-miss prediction: blocks that
// stay L1-resident between stages make the effective DRAM traffic
// lower. (Distinct from perfmodel.ArithmeticIntensity = 0.36 flop/byte,
// the paper-calibrated whole-application constant.)
//
// All counts are derived from the canonical (unfused) kernel pipeline
// so they are variant-independent, like FlopCounts.
type ByteCounts struct {
	SolidElement int64 // force kernel, per solid element per step
	FluidElement int64 // force kernel, per fluid element per step

	// Static/Dynamic split the element totals by whether a stream
	// depends on the wavefield. Static streams — connectivity, metric
	// terms, material properties, GLL weights — are a property of the
	// element alone, so an ensemble run batching S wavefields through
	// one element sweep streams them once per element, not once per
	// source; dynamic streams (displacement/potential gathers, scratch
	// blocks, acceleration scatters) scale with S. The batched force
	// kernels charge Static + S*Dynamic per element, which is what
	// raises the measured arithmetic intensity of a batch above the
	// S=1 row. Invariant: Element = ElementStatic + ElementDynamic.
	SolidElementStatic  int64
	SolidElementDynamic int64
	FluidElementStatic  int64
	FluidElementDynamic int64

	// IboolGather, SolidGather and FluidGather are the gather's reads
	// alone: the element's connectivity (static, once per element) and,
	// per field, the displacement or potential. A visit that finds its
	// gathered field zero stops there (solid.go), so it costs its field's
	// gather; an element whose every field stops costs IboolGather.
	IboolGather int64
	SolidGather int64
	FluidGather int64

	// SolidDeadPoint and FluidDeadPoint are a tail's traffic at a point
	// of a quiescent page: the one read of the final acceleration it
	// tests. A predictor costs nothing there.
	SolidDeadPoint int64
	FluidDeadPoint int64

	// AttenuationMech is the extra solid-element traffic per SLS
	// mechanism: six memory-variable arrays read-modify-written. The
	// memory variables are per-wavefield state, so it is all dynamic.
	AttenuationMech int64

	SolidPredictor int64 // per solid grid point per step
	FluidPredictor int64 // per fluid grid point per step
	// SolidTail is the solid step's one pass after the forces: mass
	// division, Coriolis and corrector share its streams, so rotation
	// adds none; Gravity is the extra traffic when gravity is on.
	SolidTail int64 // per solid grid point per step
	Gravity   int64 // per solid point per step, when gravity is on
	// FluidTail is the fluid step's one pass after the forces: mass
	// division and corrector share its streams.
	FluidTail int64 // per fluid grid point per step

	CouplePoint   int64 // per boundary-face GLL point per step
	TractionPoint int64 // per boundary-face GLL point per step
	OceanPoint    int64 // per surface point per step
	SourcePoint   int64 // per element point per active source step
}

// DefaultByteCounts returns the streamed-traffic model for the NGLL=5
// kernels with float32 arrays and int32 connectivity (4 bytes each).
func DefaultByteCounts() ByteCounts {
	const (
		f32   = 4
		ngll3 = 125
	)
	return ByteCounts{
		// Solid element, five stages, in 125-float block streams:
		//   gather    ibool r + 3 displacement r + 3 scratch w      =  7
		//   grad      3 scratch r + 9 t w                           = 12
		//   pointwise 9 t r + 12 property r (9 metrics, Jac, mu,
		//             kappa) + 9 s w                                = 30
		//   gradT     9 s r + 9 t w                                 = 18
		//   scatter   9 t r + 3 weight r + ibool r + 3 accel rmw    = 19
		SolidElement: int64(ngll3 * f32 * (7 + 12 + 30 + 18 + 19)),
		// Of the 86 solid streams, the element-static ones are: the
		// ibool read in gather and again in scatter (2), the 12
		// property reads of the pointwise stage, and the 3 GLL-weight
		// reads of the scatter — 17 streams. The other 69 carry
		// wavefield state and scale with the batch width.
		SolidElementStatic:  int64(ngll3 * f32 * 17),
		SolidElementDynamic: int64(ngll3 * f32 * (7 + 12 + 30 + 18 + 19 - 17)),
		// Fluid element, same stages for one scalar field:
		//   gather 3, grad 4 (1 r + 3 w), pointwise 17 (3 t r + 11
		//   property r + 3 s w), gradT 6, scatter 9 (3 t r + 3
		//   weight r + ibool r + chiDdot rmw).
		FluidElement: int64(ngll3 * f32 * (3 + 4 + 17 + 6 + 9)),
		// Fluid static streams: ibool in gather and scatter (2), 11
		// property reads, 3 weight reads — 16 of the 39.
		FluidElementStatic:  int64(ngll3 * f32 * 16),
		FluidElementDynamic: int64(ngll3 * f32 * (3 + 4 + 17 + 6 + 9 - 16)),
		IboolGather:         int64(ngll3 * f32),
		SolidGather:         int64(ngll3 * f32 * 3),
		FluidGather:         int64(ngll3 * f32),
		SolidDeadPoint:      3 * f32,
		FluidDeadPoint:      f32,
		// Per SLS mechanism: six r arrays read-modify-written.
		AttenuationMech: int64(ngll3 * f32 * (6 * 2)),

		// Newmark predictor: d rmw, v rmw, a r then zeroed (r+w) per
		// component — 6 streams/component; one component for the fluid.
		SolidPredictor: 3 * 6 * f32,
		FluidPredictor: 6 * f32,
		// Solid tail: a rmw (3 components) + one shared inverse-mass
		// read + v rmw (3 components), each streamed once — the
		// corrector takes a from registers, Coriolis reads the v the
		// corrector streams. Gravity adds d r (3) + g-table r (2) +
		// rhat r (3).
		SolidTail: (3*2 + 1 + 3*2) * f32,
		Gravity:   (3 + 2 + 3) * f32,
		// Fluid tail: chiDdot rmw + inverse-mass read + chiDot rmw, each
		// streamed once — the corrector takes chiDdot from a register.
		FluidTail: (2 + 1 + 2) * f32,

		// Coupling: 3 displacement r + 3 normal r + weight r + point
		// indices (2 int32) + chiDdot rmw.
		CouplePoint: (3 + 3 + 1 + 2 + 2) * f32,
		// Traction: chiDdot r + 3 normal r + weight r + indices +
		// 3 accel rmw.
		TractionPoint: (1 + 3 + 1 + 2 + 3*2) * f32,
		// Ocean load: 3 accel rmw + normal r (3) + rescale table r.
		OceanPoint: (3*2 + 3 + 1) * f32,
		// Source: 3 accel rmw + source-array r (3).
		SourcePoint: (3*2 + 3) * f32,
	}
}
