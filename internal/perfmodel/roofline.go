package perfmodel

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"specglobe/internal/simd"
)

// Roofline analysis (Williams, Waterman & Patterson 2009) for measured
// kernel phases: given a phase's exact flop count, analytic byte
// traffic and wall time, position its achieved flop rate against a
// machine's compute peak and the bandwidth ceiling its arithmetic
// intensity allows. The paper's section 5 sustained-performance model
// is the same construction with fixed constants (CPUEfficiency,
// ArithmeticIntensity); here the intensity comes from the live
// per-phase counters of internal/perf, so each BENCH row can report
// what fraction of the attainable ceiling it actually reached.

// RooflinePoint positions one measured phase on a machine's roofline.
type RooflinePoint struct {
	// FlopPerByte is the measured arithmetic intensity (x coordinate).
	FlopPerByte float64
	// AchievedGflops is flops/seconds (y coordinate).
	AchievedGflops float64
	// PeakGflops is the machine's compute peak over the given cores.
	PeakGflops float64
	// BWGBs is the machine's memory bandwidth over the given cores.
	BWGBs float64
	// CeilingGflops is the attainable rate at this intensity:
	// min(PeakGflops, FlopPerByte * BWGBs).
	CeilingGflops float64
	// PctOfPeak is AchievedGflops over PeakGflops, in percent.
	PctOfPeak float64
	// PctOfRoofline is AchievedGflops over CeilingGflops, in percent —
	// how much of the attainable ceiling the phase reached.
	PctOfRoofline float64
	// BoundBy is "memory" when the bandwidth ceiling is the binding
	// one at this intensity, else "compute".
	BoundBy string
}

// RooflineFor evaluates the roofline for a measured phase: flops and
// bytes are the phase's counted totals, seconds its busy time, and the
// machine/cores pair sets the ceilings.
func RooflineFor(m Machine, cores int, flops, bytes int64, seconds float64) RooflinePoint {
	p := RooflinePoint{
		PeakGflops: m.PeakGflopsPerCore * float64(cores),
		BWGBs:      m.MemBWPerCoreGBs * float64(cores),
	}
	if bytes > 0 {
		p.FlopPerByte = float64(flops) / float64(bytes)
	}
	if seconds > 0 {
		p.AchievedGflops = float64(flops) / seconds / 1e9
	}
	p.CeilingGflops = p.PeakGflops
	p.BoundBy = "compute"
	if bw := p.FlopPerByte * p.BWGBs; bw > 0 && bw < p.CeilingGflops {
		p.CeilingGflops = bw
		p.BoundBy = "memory"
	}
	if p.PeakGflops > 0 {
		p.PctOfPeak = 100 * p.AchievedGflops / p.PeakGflops
	}
	if p.CeilingGflops > 0 {
		p.PctOfRoofline = 100 * p.AchievedGflops / p.CeilingGflops
	}
	return p
}

// Ceilings renders the machine's per-core ceilings for a table header:
// the compute peak — with the scalar ceiling of the Go kernels next to
// it where the two were measured apart — and the memory bandwidth.
func (m Machine) Ceilings() string {
	if m.ScalarPeakGflopsPerCore > 0 && m.ScalarPeakGflopsPerCore != m.PeakGflopsPerCore {
		return fmt.Sprintf("%.1f Gflop/s 8-lane vec4, %.1f Gflop/s scalar Go, %.1f GB/s per core",
			m.PeakGflopsPerCore, m.ScalarPeakGflopsPerCore, m.MemBWPerCoreGBs)
	}
	return fmt.Sprintf("%.1f Gflop/s, %.1f GB/s per core", m.PeakGflopsPerCore, m.MemBWPerCoreGBs)
}

// String renders the point as a compact roofline annotation.
func (p RooflinePoint) String() string {
	return fmt.Sprintf("%.2f flop/B, %.2f Gflop/s = %.1f%% of peak, %.1f%% of %s roofline",
		p.FlopPerByte, p.AchievedGflops, p.PctOfPeak, p.PctOfRoofline, p.BoundBy)
}

var (
	localOnce    sync.Once
	localMachine Machine
)

// MeasureLocalMachine returns a catalog entry for the host this process
// runs on, with the compute peak and memory bandwidth measured by short
// microbenchmarks (one core each; scale by cores in RooflineFor). The
// measurement runs once and is cached for the process lifetime.
//
// PeakGflopsPerCore is the ceiling of the production (vec4) kernel:
// the 8-lane multiply+add issue rate where simd.Vector reports the
// assembly bodies, the scalar rate elsewhere. ScalarPeakGflopsPerCore
// is always the scalar rate — the ceiling of the Go kernels (scalar
// and vec4's fallback), which the compiler does not vectorize.
func MeasureLocalMachine() Machine {
	localOnce.Do(func() {
		scalar := measureScalarPeakGflops()
		peak := scalar
		if simd.Vector() {
			peak = measureVectorPeakGflops()
		}
		localMachine = Machine{
			Name: "local-measured", Site: "this host",
			TotalCores:              runtime.NumCPU(),
			PeakGflopsPerCore:       peak,
			ScalarPeakGflopsPerCore: scalar,
			MemBWPerCoreGBs:         measureTriadGBs(),
			MemPerCoreGB:            1, // not measured; unused by the roofline
		}
	})
	return localMachine
}

// measureSink defeats dead-code elimination in the microbenchmarks.
var measureSink float32

// measureScalarPeakGflops estimates what straight-line scalar float32
// code can attain on one core: a mul-add chain over sixteen independent
// accumulators, so the loop is bound by arithmetic throughput rather
// than the latency of any one dependency chain. This is the ceiling of
// the Go kernels, which the compiler does not auto-vectorize; it is NOT
// the ceiling of the vec4 kernel where its assembly bodies run.
func measureScalarPeakGflops() float64 {
	return chainGflops(1<<23, 16*2, peakChain)
}

// measureVectorPeakGflops is the same measurement through the 8-lane
// unit: separate VMULPS and VADDPS (the vector kernels never fuse, so a
// fused multiply-add peak would be a ceiling they cannot reach by
// construction).
func measureVectorPeakGflops() float64 {
	return chainGflops(1<<22, 12*2*8, func(iters int) float32 {
		return peakChainAVX2(iters, 1.0000001, 1e-9)
	})
}

// chainGflops times iters rounds of a mul-add chain that performs
// flopsPerRound flops a round, after a short warm-up.
func chainGflops(iters int, flopsPerRound float64, chain func(iters int) float32) float64 {
	chain(iters >> 7) // warm up
	t0 := time.Now()
	measureSink = chain(iters)
	sec := time.Since(t0).Seconds()
	if sec <= 0 {
		return 1
	}
	return float64(iters) * flopsPerRound / sec / 1e9
}

// peakChain runs iters rounds of sixteen independent mul-add chains.
// The accumulators are plain locals of a leaf function so they stay in
// registers — a closure would capture them by reference and turn every
// statement into a memory round trip, halving the measured peak.
func peakChain(iters int) float32 {
	var a0, a1, a2, a3, a4, a5, a6, a7 float32 = 1, 1, 1, 1, 1, 1, 1, 1
	var b0, b1, b2, b3, b4, b5, b6, b7 float32 = 1, 1, 1, 1, 1, 1, 1, 1
	const x = float32(1.0000001)
	for i := 0; i < iters; i++ {
		a0 = a0*x + 1e-9
		a1 = a1*x + 1e-9
		a2 = a2*x + 1e-9
		a3 = a3*x + 1e-9
		a4 = a4*x + 1e-9
		a5 = a5*x + 1e-9
		a6 = a6*x + 1e-9
		a7 = a7*x + 1e-9
		b0 = b0*x + 1e-9
		b1 = b1*x + 1e-9
		b2 = b2*x + 1e-9
		b3 = b3*x + 1e-9
		b4 = b4*x + 1e-9
		b5 = b5*x + 1e-9
		b6 = b6*x + 1e-9
		b7 = b7*x + 1e-9
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 +
		b0 + b1 + b2 + b3 + b4 + b5 + b6 + b7
}

// measureTriadGBs estimates single-core sustainable memory bandwidth
// with a STREAM-style triad over arrays well beyond cache size,
// counting two reads and one write per element.
func measureTriadGBs() float64 {
	const n = 1 << 23 // 8M float32 = 32 MB per array
	a := make([]float32, n)
	b := make([]float32, n)
	c := make([]float32, n)
	for i := range b {
		b[i] = float32(i%7) * 0.25
		c[i] = float32(i%11) * 0.5
	}
	s := float32(1.5)
	triad := func() {
		for i := range a {
			a[i] = b[i] + s*c[i]
		}
	}
	triad() // warm up (and fault the pages of a)
	const reps = 3
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		triad()
	}
	sec := time.Since(t0).Seconds()
	measureSink += a[n-1]
	if sec <= 0 {
		return 1
	}
	return float64(reps) * n * 12 / sec / 1e9
}
