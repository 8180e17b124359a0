// Package solver is the poolsafety negative fixture: the sanctioned
// chunk patterns — writes indexed through the chunk's own elements or
// range, scratch kept private, fresh allocations, and a reasoned
// pragma for a deliberate exception.
package solver

const ngll3 = 8

type kernelScratch struct {
	t1 [8]float32
	ux [8]float32
}

type pool struct{}

func (p *pool) sweepElems(scr []*kernelScratch, elems []int32, busy *int64, fn func(ks *kernelScratch, elems []int32)) {
	fn(scr[0], elems)
}

type span struct{ i, at, n int32 }

func (p *pool) sweepSpans(scr []*kernelScratch, spans []span, n int, busy *int64, fn func(spans []span)) {
	fn(spans)
}

type state struct {
	accel []float32
	ibool []int32
	mass  []float32
	hold  []float32
}

// tail writes each span's own points, through a helper that receives
// them as sub-slices, and copies them into the span's hold slots.
func tail(p *pool, s *state, spans []span, n int) {
	var busy int64
	p.sweepSpans(nil, spans, n, &busy, func(spans []span) {
		for _, sp := range spans {
			divide(s.accel[sp.i:sp.i+sp.n], s.mass[sp.i:sp.i+sp.n])
			copy(s.hold[sp.at:sp.at+sp.n], s.accel[sp.i:sp.i+sp.n])
		}
	})
}

func divide(a, m []float32) {
	m = m[:len(a)]
	for k := range a {
		a[k] *= m[k]
	}
}

func forces(p *pool, s *state, scr []*kernelScratch, elems []int32) {
	var busy int64
	p.sweepElems(scr, elems, &busy, func(ks *kernelScratch, elems []int32) {
		t1 := &ks.t1
		for k := range t1 {
			t1[k] = 0
		}
		local := make([]float32, ngll3)
		for _, e32 := range elems {
			e := int(e32)
			base := e * ngll3
			ib := s.ibool[base : base+ngll3]
			for k, g := range ib {
				local[k] = float32(k)
				s.accel[g] += t1[k] * local[k]
			}
		}
	})
}

// update writes each span's own points, indexed one by one.
func update(p *pool, s *state, scr []*kernelScratch, spans []span, n int) {
	var busy int64
	p.sweepSpans(scr, spans, n, &busy, func(spans []span) {
		for _, sp := range spans {
			for i := sp.i; i < sp.i+sp.n; i++ {
				s.accel[i] *= s.mass[i]
			}
		}
	})
}

func helperDriver(p *pool, s *state, scr []*kernelScratch, elems []int32) {
	var busy int64
	p.sweepElems(scr, elems, &busy, func(ks *kernelScratch, elems []int32) {
		s.goodChunk(ks, elems)
	})
}

// goodChunk writes through the chunk's own element list, the coloring-
// class contract.
func (s *state) goodChunk(ks *kernelScratch, elems []int32) {
	for _, e32 := range elems {
		s.accel[int(e32)] += ks.ux[0]
	}
}

func reduction(p *pool, s *state, scr []*kernelScratch, elems []int32) {
	var busy int64
	p.sweepElems(scr, elems, &busy, func(ks *kernelScratch, elems []int32) {
		//specfem:nopoolsafety single-writer slot: the sweep dispatches one chunk per color, and slot 0 belongs to this fixture's only chunk
		s.accel[0] = 0
	})
}

// asmStage stands for a kernel implemented in assembly.
func asmStage(a *asmArgs, out *float32)

type asmArgs struct {
	in *float32
}

func asmDriver(p *pool, s *state, scr []*kernelScratch, elems []int32) {
	var busy int64
	p.sweepElems(scr, elems, &busy, func(ks *kernelScratch, elems []int32) {
		s.asmChunk(ks, elems)
	})
}

// asmChunk hands the assembly the element's own block of shared state,
// from a sub-slice capped at the block so Go checks the bound, and a
// pointer into the worker's scratch.
func (s *state) asmChunk(ks *kernelScratch, elems []int32) {
	for _, e32 := range elems {
		lo, hi := int(e32)*ngll3, (int(e32)+1)*ngll3
		asmStage(&asmArgs{in: &s.mass[lo:hi:hi][0]}, &s.accel[lo:hi:hi][0])
		asmStage(&asmArgs{in: &ks.t1[0]}, &ks.t1[0])
	}
}

type pages struct{}

func (m *pages) eachLive(lo, hi int, fn func(lo, hi int)) { fn(lo, hi) }

func view(a []float32) []float32 { return a }

func predictAsm(d *float32, n int)

func pageDriver(p *pool, s *state, pg *pages, spans []span, n int) {
	var busy int64
	p.sweepSpans(nil, spans, n, &busy, func(spans []span) {
		for _, sp := range spans {
			s.predict(pg, int(sp.i), int(sp.i+sp.n))
		}
	})
}

// predict's callback runs on pieces of the chunk's own points: it may
// write them, and the helper it hands a view of them to may pass them
// to assembly through bounds taken from the view.
func (s *state) predict(pg *pages, first, end int) {
	pg.eachLive(first, end, func(lo, hi int) {
		s.hold[lo] = 0
		predictFlat(view(s.accel[lo:hi]))
	})
}

func predictFlat(d []float32) {
	if n := len(d) &^ 7; n > 0 {
		predictAsm(&d[:n:n][0], n)
	}
}
