// Package solver is the poolsafety positive fixture: a miniature
// worker pool with the real sweep shapes, driven by chunk closures
// that break the conventions.
package solver

type kernelScratch struct {
	t1 [8]float32
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
	seen  map[int32]bool
	next  int
}

func spanOutside(p *pool, s *state, spans []span, n int) {
	var busy int64
	p.sweepSpans(nil, spans, n, &busy, func(spans []span) {
		for _, sp := range spans {
			s.accel[sp.i] = 0
			s.accel[s.next] = 0 // want "write to shared state is not indexed through the chunk's own range"
		}
	})
}

// spanShifted walks its spans' points one by one but writes them
// shifted by captured state, into points another chunk may own.
func spanShifted(p *pool, s *state, spans []span, n int) {
	var busy int64
	p.sweepSpans(nil, spans, n, &busy, func(spans []span) {
		for _, sp := range spans {
			for i := sp.i; i < sp.i+sp.n; i++ {
				s.accel[int(i)+s.next] = 0 // want "write to shared state is not indexed through the chunk's own range"
			}
		}
	})
}

func capturedVar(p *pool, scr []*kernelScratch, elems []int32) int {
	var busy int64
	count := 0
	p.sweepElems(scr, elems, &busy, func(ks *kernelScratch, elems []int32) {
		count++ // want "write to captured variable count inside a pool chunk"
	})
	return count
}

func capturedField(p *pool, s *state, scr []*kernelScratch, elems []int32) {
	var busy int64
	p.sweepElems(scr, elems, &busy, func(ks *kernelScratch, elems []int32) {
		s.next = len(elems) // want "write to shared state is not indexed through the chunk's own range"
	})
}

func wrongIndex(p *pool, s *state, scr []*kernelScratch, elems []int32) {
	var busy int64
	step := 3
	p.sweepElems(scr, elems, &busy, func(ks *kernelScratch, elems []int32) {
		s.accel[step] = 0 // want "write to shared state is not indexed through the chunk's own range"
	})
	_ = step
}

func mapWrite(p *pool, s *state, scr []*kernelScratch, elems []int32) {
	var busy int64
	p.sweepElems(scr, elems, &busy, func(ks *kernelScratch, elems []int32) {
		s.seen[elems[0]] = true // want "map write inside a pool chunk"
	})
}

func scratchEscape(p *pool, scr []*kernelScratch, elems []int32) *kernelScratch {
	var busy int64
	var stash *kernelScratch
	p.sweepElems(scr, elems, &busy, func(ks *kernelScratch, elems []int32) {
		stash = ks // want "write to captured variable stash inside a pool chunk" "kernelScratch escapes the pool chunk into captured state"
	})
	return stash
}

func helperDriver(p *pool, s *state, scr []*kernelScratch, elems []int32) {
	var busy int64
	p.sweepElems(scr, elems, &busy, func(ks *kernelScratch, elems []int32) {
		s.badChunk(ks, elems)
	})
}

// badChunk is reached with the chunk's arguments, so it is checked
// under the chunk rules one call layer deep.
func (s *state) badChunk(ks *kernelScratch, elems []int32) {
	s.accel[s.next] = 0 // want "write to shared state is not indexed through the chunk's own range"
}

// asmStage stands for a kernel implemented in assembly: no body the
// analyzer could follow, no bounds check the runtime could make.
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

// asmChunk hands the assembly pointers into shared state that do not
// go through the chunk's own elements: a fixed slot, and a slot indexed
// by shared state.
func (s *state) asmChunk(ks *kernelScratch, elems []int32) {
	for range elems {
		asmStage(&asmArgs{in: &s.accel[0]}, // want "pointer into shared state handed to an assembly function"
			&s.accel[s.next]) // want "pointer into shared state handed to an assembly function"
	}
}

// pages stands for the point passes' page marks: eachLive calls fn on
// the live runs of [lo, hi).
type pages struct{}

func (m *pages) eachLive(lo, hi int, fn func(lo, hi int)) { fn(lo, hi) }

// view stands for the flat view of a piece of a field.
func view(a []float32) []float32 { return a }

// predictAsm stands for the predictor's assembly body.
func predictAsm(d *float32, n int)

// stash is package-level state every chunk shares.
var stash []float32

func pageDriver(p *pool, s *state, pg *pages, spans []span, n int) {
	var busy int64
	p.sweepSpans(nil, spans, n, &busy, func(spans []span) {
		for _, sp := range spans {
			s.predict(pg, int(sp.i), int(sp.i+sp.n))
		}
	})
}

// predict hands each live run of its chunk's points to a helper through
// the page walk's callback; the helper is checked under the chunk rules.
func (s *state) predict(pg *pages, first, end int) {
	pg.eachLive(first, end, func(lo, hi int) {
		predictFlat(view(s.accel[lo:hi]), hi-lo)
	})
}

func predictFlat(d []float32, n int) {
	predictAsm(&stash[0], n) // want "pointer into shared state handed to an assembly function"
	predictAsm(&d[:n:n][0], n)
}
