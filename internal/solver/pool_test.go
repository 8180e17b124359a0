package solver

import (
	"sync/atomic"
	"testing"
)

// Every element of a sweep must be visited exactly once, regardless of
// how the chunks land on the workers.
func TestSweepElemsCoversExactlyOnce(t *testing.T) {
	p := newPool(4, 1)
	defer p.close()
	const n = 1000
	elems := make([]int32, n)
	for i := range elems {
		elems[i] = int32(i)
	}
	counts := make([]int32, n)
	var busy int64
	scr := new(kernelScratch)
	p.sweepElems(scr, false, elems, &busy, func(ks *kernelScratch, chunk []int32) {
		if ks == nil {
			t.Error("nil scratch")
		}
		for _, e := range chunk {
			atomic.AddInt32(&counts[e], 1)
		}
	})
	for e, c := range counts {
		if c != 1 {
			t.Fatalf("element %d visited %d times", e, c)
		}
	}
	if busy <= 0 {
		t.Error("no busy time attributed")
	}
}

// A point sweep must cover every point of [0, n) exactly once, in
// chunks that start on a page boundary (so the passes' page walks see
// whole pages), at any length.
func TestSweepSpansCoversExactlyOnce(t *testing.T) {
	p := newPool(3, 1)
	defer p.close()
	for _, n := range []int{0, 100, minPointChunk, 30000, 30001} {
		counts := make([]int32, n)
		var busy int64
		p.sweepSpans(new(kernelScratch), false, n, &busy, func(lo, hi int) {
			if lo%livePage != 0 {
				t.Errorf("n %d: chunk [%d, %d) starts inside a page", n, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n %d: point %d visited %d times, want 1", n, i, c)
			}
		}
	}
}

// Sweeps too small to dispatch run inline on the caller's scratch.
func TestSmallSweepRunsInline(t *testing.T) {
	p := newPool(4, 1)
	defer p.close()
	scr := new(kernelScratch)
	var busy int64
	var got *kernelScratch
	p.sweepElems(scr, false, []int32{0, 1, 2}, &busy, func(ks *kernelScratch, chunk []int32) {
		got = ks
	})
	if got != scr {
		t.Error("tiny sweep did not use the caller's scratch")
	}
	if busy <= 0 {
		t.Error("inline sweep not attributed")
	}
}

// A panic in a chunk must re-raise on the submitting goroutine (where
// the mpi runtime's recover/poison path can handle it) instead of
// killing the process from a worker.
func TestSweepPanicPropagates(t *testing.T) {
	p := newPool(2, 1)
	defer p.close()
	scr := new(kernelScratch)
	elems := make([]int32, 100)
	for i := range elems {
		elems[i] = int32(i)
	}
	var busy int64
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	p.sweepElems(scr, false, elems, &busy, func(ks *kernelScratch, chunk []int32) {
		panic("boom")
	})
	t.Fatal("sweep returned after panic")
}

// After close, per-worker busy time must account the dispatched work.
func TestPoolBusyAccounting(t *testing.T) {
	p := newPool(2, 1)
	scr := new(kernelScratch)
	elems := make([]int32, 64)
	for i := range elems {
		elems[i] = int32(i)
	}
	var busy int64
	p.sweepElems(scr, false, elems, &busy, func(ks *kernelScratch, chunk []int32) {
		s := float32(0)
		for i := 0; i < 10000; i++ {
			s += float32(i)
		}
		ks.u[0] = s
	})
	p.close()
	workers := p.Busy()
	if len(workers) != 2 {
		t.Fatalf("%d busy slots, want 2", len(workers))
	}
	var total int64
	for _, b := range workers {
		total += int64(b)
	}
	if total <= 0 {
		t.Error("workers recorded no busy time")
	}
	if busy < total {
		t.Errorf("rank attribution %d below worker total %d", busy, total)
	}
}

// A rank that holds a compute token runs the whole sweep on its own
// scratch: one call, however long the sweep.
func TestHeldSweepRunsWhole(t *testing.T) {
	p := newPool(4, 4)
	defer p.close()
	scr := new(kernelScratch)
	elems := make([]int32, 1000)
	var busy int64
	calls := 0
	p.sweepElems(scr, true, elems, &busy, func(ks *kernelScratch, chunk []int32) {
		calls++
		if ks != scr || len(chunk) != len(elems) {
			t.Errorf("held sweep ran %d elements on another scratch", len(chunk))
		}
	})
	if calls != 1 || busy <= 0 {
		t.Errorf("held sweep: %d calls, busy %d", calls, busy)
	}
}

// The run's shape follows the ranks' loads: the ranks sweep inline
// while the busiest rank's load is at most the chunked step's estimate
// (total/Workers × chunkCost, 5/4), and keep the starting shape —
// inline with at least Workers ranks — until every rank has finished a
// step.
func TestShapeFollowsBusiestRank(t *testing.T) {
	shape := func(workers int, loads ...int64) (start, after bool) {
		p := newPool(workers, len(loads))
		defer p.close()
		start = p.inlineStep(0)
		for r, l := range loads {
			p.observe(r, l)
		}
		return start, p.inlineStep(0)
	}
	for _, c := range []struct {
		workers       int
		loads         []int64
		start, inline bool
	}{
		{4, []int64{100, 100, 100, 100, 100, 100}, true, true},  // balanced, 6 ranks on 4
		{4, []int64{200, 100, 100, 100, 100, 100}, true, true},  // 200 <= 700/4 × 5/4
		{4, []int64{300, 100, 100, 100, 100, 100}, true, false}, // 300 > 800/4 × 5/4
		{2, []int64{500, 300}, true, true},                      // exactly the estimate
		{2, []int64{501, 300}, true, false},
		{4, []int64{100, 100, 100}, false, false}, // fewer ranks than Workers
		{1, []int64{900, 1, 1}, true, true},       // one token: always inline
	} {
		start, inline := shape(c.workers, c.loads...)
		if start != c.start || inline != c.inline {
			t.Errorf("Workers %d loads %v: inline %v then %v, want %v then %v",
				c.workers, c.loads, start, inline, c.start, c.inline)
		}
	}
	// A rank without a load yet keeps the shape; the load then averages
	// over about four steps.
	p := newPool(2, 3)
	defer p.close()
	p.observe(0, 1000)
	p.observe(1, 10)
	if !p.inlineStep(0) {
		t.Error("shape changed before every rank finished a step")
	}
	p.observe(0, 200)
	if l := p.load[0].Load(); l != 800 {
		t.Errorf("load after 1000 and 200 = %d, want 800", l)
	}
}
