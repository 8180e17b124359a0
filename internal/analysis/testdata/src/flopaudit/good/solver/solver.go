// Package solver is the flopaudit negative fixture: the accounted
// caller covers the beat bodies its switch runs, and a reasoned pragma
// covers intentional setup work.
package solver

import "perf"

const flopsPerPoint = 2

type rank struct {
	prof *perf.Profiler
}

type beat struct {
	perf.Beat
	kind int
}

func (r *rank) step(beats []beat, y, x []float32, a float32) {
	r.prof.Mark()
	for i := range beats {
		b := &beats[i]
		var w perf.Work
		switch b.kind {
		case 0:
			axpyChunk(y, x, a)
			w = perf.Work{Flops: int64(len(x)) * flopsPerPoint, Bytes: int64(len(x)) * 12}
		}
		r.prof.Charge(&b.Beat, w)
	}
}

// axpyChunk is covered through its accounted caller.
func axpyChunk(y, x []float32, a float32) {
	for i := range x {
		y[i] += a * x[i]
	}
}

// setup precomputes coefficient tables before stepping starts.
//
//specfem:noaccount one-time setup outside the stepped loop; the model counts kernel work only
func setup(w []float64) {
	for i := range w {
		w[i] = w[i] * 0.5
	}
}
