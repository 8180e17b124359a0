package solver

import (
	"sync/atomic"
	"testing"
)

// Every element of a sweep must be visited exactly once, regardless of
// how the chunks land on the workers.
func TestSweepElemsCoversExactlyOnce(t *testing.T) {
	p := newPool(4)
	defer p.close()
	const n = 1000
	elems := make([]int32, n)
	for i := range elems {
		elems[i] = int32(i)
	}
	counts := make([]int32, n)
	var busy int64
	scr := new(kernelScratch)
	p.sweepElems(scr, elems, &busy, func(ks *kernelScratch, chunk []int32) {
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

// A list of many short spans — the shape of a level's spans under LTS —
// must cover every point of the list exactly once and leave every other
// point alone.
func TestSweepSpansCoversExactlyOnce(t *testing.T) {
	p := newPool(3)
	defer p.close()
	const nglob = 30000
	var spans []span
	for i := int32(0); i < nglob; i += 6 {
		spans = append(spans, span{i: i, n: 3, dt: 1})
	}
	counts := make([]int32, nglob)
	var busy int64
	p.sweepSpans(new(kernelScratch), spans, 3*len(spans), &busy, func(spans []span) {
		for _, s := range spans {
			for k := int32(0); k < s.n; k++ {
				atomic.AddInt32(&counts[s.i+k], 1)
			}
		}
	})
	for i, c := range counts {
		want := int32(0)
		if i%6 < 3 {
			want = 1
		}
		if c != want {
			t.Fatalf("point %d visited %d times, want %d", i, c, want)
		}
	}
}

// Sweeps too small to dispatch run inline on the caller's scratch.
func TestSmallSweepRunsInline(t *testing.T) {
	p := newPool(4)
	defer p.close()
	scr := new(kernelScratch)
	var busy int64
	var got *kernelScratch
	p.sweepElems(scr, []int32{0, 1, 2}, &busy, func(ks *kernelScratch, chunk []int32) {
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
	p := newPool(2)
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
	p.sweepElems(scr, elems, &busy, func(ks *kernelScratch, chunk []int32) {
		panic("boom")
	})
	t.Fatal("sweep returned after panic")
}

// After close, per-worker busy time must account the dispatched work.
func TestPoolBusyAccounting(t *testing.T) {
	p := newPool(2)
	scr := new(kernelScratch)
	elems := make([]int32, 64)
	for i := range elems {
		elems[i] = int32(i)
	}
	var busy int64
	p.sweepElems(scr, elems, &busy, func(ks *kernelScratch, chunk []int32) {
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
