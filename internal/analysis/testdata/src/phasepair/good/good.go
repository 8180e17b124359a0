// Package good holds the phasepair negative fixtures: paired Start/
// Stop, a step that marks and charges its beats, charges next to the
// counted loop directly or through the beat they run, and a reasoned
// pragma.
package good

import "perf"

func paired(p *perf.Profiler) {
	p.Start()
	defer p.Stop()
}

type beat struct {
	perf.Beat
	xs []float32
}

func step(p *perf.Profiler, beats []beat) {
	p.Mark()
	for i := range beats {
		b := &beats[i]
		p.Charge(&b.Beat, run(b))
	}
}

func run(b *beat) perf.Work {
	sum := float32(0)
	for _, x := range b.xs {
		sum += x
	}
	_ = sum
	return perf.Work{Flops: int64(len(b.xs))}
}

func countedLoop(p *perf.Profiler, b *perf.Beat, y, x []float32, a float32) {
	for i := range x {
		y[i] += a * x[i]
	}
	p.Charge(b, perf.Work{Flops: int64(2 * len(x))})
}

// dispatched charges a beat whose work is handed to another goroutine.
//
//specfem:nophasepair the counted work is dispatched elsewhere in this fixture; the charge is deliberate
func dispatched(p *perf.Profiler, b *perf.Beat, n int64) {
	p.Charge(b, perf.Work{Flops: n})
}
