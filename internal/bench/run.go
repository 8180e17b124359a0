package bench

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// Options selects one workload run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is the time box of the whole measurement (calibration,
	// warm-up rep and timed reps); the rep count adapts to it but never
	// drops below MinReps. Zero is the smoke test's setting: a single
	// timed rep and no host calibration.
	Seconds float64
	// Trace selects the traced run (per-layer metrics) instead of the
	// untraced one (end-to-end metrics).
	Trace bool
	// Sizes are the workload sizes: FullSizes except in the smoke test.
	Sizes Sizes
	// ScratchDir is an existing directory for sockets and written
	// seismograms; keep it short and relative (unix socket addresses
	// are length-limited).
	ScratchDir string
}

// MinReps is the least number of timed reps of an untraced run.
const MinReps = 3

// EndToEnd lists the end-to-end metric names and units, in print
// order. Every workload reports every one of them.
var EndToEnd = [][2]string{
	{"setup_s", "s"},
	{"steps_per_s", "steps/s"},
	{"time_to_solution_s", "s"},
	{"live_heap_mb", "MB"},
	{"cpu_s", "s"},
}

// calibSpin is the host-noise probe: a fixed amount of single-thread
// integer work (about 200 ms on the recording host), timed before and
// after each workload. It measures the host, not the program. The work
// runs as five bursts and the result is five times the median burst, so
// that one preempted burst does not read as a slow host.
func calibSpin() float64 {
	const bursts = 5
	ms := make([]float64, bursts)
	x := uint64(88172645463325252)
	for b := range ms {
		t0 := time.Now()
		for i := 0; i < 140_000_000/bursts; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ms[b] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	calibSink = x
	return bursts * Median(ms)
}

var calibSink uint64

// validFor states what a workload's rows may be compared against.
func validFor(def workloadDef) string {
	note := fmt.Sprintf("%s on GOMAXPROCS %d (num_cpu %d)", def.ranks, Procs(), runtime.NumCPU())
	if def.maxRanks > runtime.NumCPU() {
		note += "; ranks time-slice the cores, so solver phase sums are rank-summed wall, not CPU"
	}
	return note + "; same host, same sizes, same harness only"
}

// Run executes one workload and returns its metrics: the end-to-end
// set when opts.Trace is false, the per-layer set when it is true.
func Run(opts Options) (*WorkloadResult, error) {
	def, known := defs[opts.Workload]
	if !known {
		return nil, fmt.Errorf("bench: unknown workload %q (have %v)", opts.Workload, Workloads())
	}
	if info, err := os.Stat(opts.ScratchDir); err != nil || !info.IsDir() {
		return nil, fmt.Errorf("bench: scratch directory %q does not exist", opts.ScratchDir)
	}
	start := time.Now()
	deadline := start.Add(time.Duration(opts.Seconds * float64(time.Second)))
	res := &WorkloadResult{
		Name: opts.Workload, Traced: opts.Trace, Seed: opts.Seed,
		ValidFor: validFor(def), Metrics: map[string]Metric{},
	}
	chk := &checker{}
	ctx := &runCtx{def: def, sz: opts.Sizes, workers: Procs(), scratch: opts.ScratchDir, chk: chk}

	smoke := opts.Seconds <= 0
	calib := func() float64 {
		if smoke {
			return 0
		}
		return calibSpin()
	}
	res.CalibMs[0] = calib()

	// Warm-up rep: discarded for timing (it pays heap growth and page
	// faults), kept for correctness — it replays the GoldenSeed inputs
	// and is checked against the committed reference. Sizes without a
	// reference (the smoke test's) are never timed for the record and
	// skip it.
	misfitM := Metric{Unit: "ratio", Skipped: "no golden reference for these sizes"}
	var coldRep float64
	g, err := loadGolden(opts.Workload, opts.Sizes)
	if err != nil {
		return nil, err
	}
	if g != nil {
		goldenScs, _ := goldenScenarios(opts.Workload, opts.Sizes)
		runtime.GC()
		t0 := time.Now()
		warm := def.rep(ctx, -1, goldenScs)
		coldRep = time.Since(t0).Seconds()
		m := misfitMax(warm.near, g.Series, goldenScs)
		chk.ok(m <= MisfitLimit, "misfit_max %.3g against the golden reference exceeds %g", m, MisfitLimit)
		misfitM = Metric{Value: m, Unit: "ratio", Summary: Summarize([]float64{m})}
	}

	scs := genScenarios(opts.Seed, opts.Workload)
	if opts.Trace {
		ctx.traced(opts, res, scs, deadline)
		res.Metrics["bench.misfit_max"] = misfitM
		res.Metrics["bench.cold_rep_s"] = one(coldRep, "s")
	} else {
		ctx.untraced(opts, res, scs, deadline)
	}

	res.CalibMs[1] = calib()
	var drift float64
	if res.CalibMs[0] > 0 {
		drift = math.Abs(res.CalibMs[1]-res.CalibMs[0]) / res.CalibMs[0]
	}
	res.Noisy = drift > 0.10
	if opts.Trace {
		res.Metrics["bench.calib_ms"] = one((res.CalibMs[0]+res.CalibMs[1])/2, "ms")
		res.Metrics["bench.calib_drift"] = one(drift, "ratio")
	}
	res.Attempted, res.Failed, res.Failures = chk.attempted, chk.failed, chk.failures
	res.Correct = chk.failed == 0
	return res, nil
}

// untraced runs timed reps until the time box is used up and reports
// the end-to-end metrics. A shared host slows a rep down by up to 2× for
// seconds to minutes at a time and never speeds it up, so the statistic
// that repeats from run to run is the floor, not the median: each timing
// is the sum over the rep's phases (every session build, every run call
// split at its streamed chunks, the rest) of that phase's fastest
// repetition, and cpu_s is the cheapest rep. live_heap_mb does not depend on the host and stays a median. The
// per-rep values are kept beside each value (n, median, quartiles,
// samples).
func (c *runCtx) untraced(opts Options, res *WorkloadResult, scs []Scenario, deadline time.Time) {
	var setup, rate, tts, heap, cpu []float64
	var phases [][]float64 // per rep: set-up phases, solve phases, the rest
	var nSetup, steps int
	var longest time.Duration
	minReps := MinReps
	if opts.Seconds <= 0 { // the smoke test
		minReps = 1
	}
	for len(setup) < minReps || time.Now().Add(longest).Before(deadline) {
		runtime.GC() // outside the timed window
		t0 := time.Now()
		s := c.def.rep(c, -1, scs)
		longest = max(longest, time.Since(t0))
		if s.solve <= 0 {
			break // the rep failed; the checker holds why
		}
		setup = append(setup, s.setup)
		rate = append(rate, float64(s.steps)/s.solve)
		tts = append(tts, s.tts)
		heap = append(heap, s.heapMB)
		cpu = append(cpu, s.cpu)
		row := append(append([]float64(nil), s.setups...), s.solves...)
		phases = append(phases, append(row, s.tts-s.setup-s.solve))
		nSetup, steps = len(s.setups), s.steps
	}
	res.Reps = len(setup)
	var setupFloor, solveFloor, ttsFloor, rateFloor float64
	for k, f := range Floors(phases) {
		ttsFloor += f
		if k < nSetup {
			setupFloor += f
		} else if k < len(phases[0])-1 {
			solveFloor += f
		}
	}
	if solveFloor > 0 {
		rateFloor = float64(steps) / solveFloor
	}
	values := []float64{setupFloor, rateFloor, ttsFloor, Median(heap), Summarize(cpu).Min}
	for i, vs := range [][]float64{setup, rate, tts, heap, cpu} {
		res.Metrics[EndToEnd[i][0]] = Metric{Value: values[i], Unit: EndToEnd[i][1], Summary: Summarize(vs), Samples: vs}
	}
}

// one wraps a single measured value.
func one(v float64, unit string) Metric {
	return Metric{Value: v, Unit: unit, Summary: Summarize([]float64{v})}
}
