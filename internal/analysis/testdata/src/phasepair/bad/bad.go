// Package bad holds the phasepair positive fixtures: broken Start/Stop
// and Mark/Charge pairing, and charges that reach no accounted work.
package bad

import "perf"

func startNoStop(p *perf.Profiler) {
	p.Start() // want "Profiler.Start without a matching Stop"
	work()
}

func work() {}

func markNoCharge(p *perf.Profiler, xs []float32) {
	p.Mark() // want "Profiler.Mark without a matching Charge"
	scale(xs)
}

func scale(xs []float32) {
	for i := range xs {
		xs[i] *= 2
	}
}

func orphanCharge(p *perf.Profiler, b *perf.Beat, n int64) {
	p.Charge(b, perf.Work{Flops: n}) // want "Charge with no accounted work"
}

func orphanTransitive(p *perf.Profiler, b *perf.Beat, n int64) {
	work()
	p.Charge(b, perf.Work{Flops: n}) // want "Charge with no accounted work"
}
