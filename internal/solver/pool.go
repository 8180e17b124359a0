package solver

import (
	"sync"
	"sync/atomic"
	"time"
)

// kernelScratch is the reusable working set of the force kernels: the
// padded 128-float element blocks that previously lived on the stack of
// every force-sweep call. One scratch belongs to each pool worker and
// one to each rank for inline sweeps; reusing them keeps the blocks
// cache-resident across elements instead of re-zeroing fresh stack
// frames per call.
//
// The fluid kernel reuses the x-component blocks (u as chi, t1..t3,
// s1..s3). A block's three pad lanes are scratch (package simd): the
// vector bodies read and overwrite them, but no kernel lets a pad lane
// feed one of the 125 live lanes, so stale pad values never reach a
// result and scratch reuse is bit-exact regardless of which worker ran
// before.
type kernelScratch struct {
	// The gathered field u, its reference gradients t<dir> and the
	// fluxes s<dir>, each the x, y and z component blocks back to back
	// (the fluid uses the x blocks).
	u          compBlocks
	t1, t2, t3 compBlocks
	s1, s2, s3 compBlocks
}

// pool is the process-wide worker pool of one solver run. All rank
// goroutines share it, so total kernel concurrency equals Workers no
// matter how many simulated ranks the world has — the hybrid
// MPI+threads model (ranks stand in for processes, workers for the
// threads of one node), and the reason 24 ranks on an 8-core host do
// not oversubscribe: the ranks orchestrate, the pool computes.
type pool struct {
	workers int
	tasks   chan poolTask
	// busy[w] is worker w's accumulated busy nanoseconds. Each worker
	// owns its slot; Busy() may only be called after close.
	busy    []int64
	scratch []*kernelScratch
	wg      sync.WaitGroup
}

// poolTask is one dispatched chunk of a sweep.
type poolTask struct {
	run func(ks *kernelScratch)
	// busyNanos is the submitting rank's attribution counter (atomic);
	// the worker adds its busy time there so the rank can charge the
	// right perf phase.
	busyNanos *int64
	wg        *sync.WaitGroup
	pan       *atomic.Pointer[poolPanic]
}

// poolPanic carries the first panic of a sweep back to the submitting
// rank goroutine, where re-raising it reaches the mpi runtime's
// poison/recover path instead of killing the process from a worker.
type poolPanic struct{ val any }

func newPool(workers int) *pool {
	if workers < 1 {
		workers = 1
	}
	p := &pool{
		workers: workers,
		tasks:   make(chan poolTask, 4*workers),
		busy:    make([]int64, workers),
		scratch: make([]*kernelScratch, workers),
	}
	for w := 0; w < workers; w++ {
		p.scratch[w] = new(kernelScratch)
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// worker drains the task channel on a fixed scratch slot.
//
//specfem:nodeterminism busy-time attribution only: the measured nanos feed perf reporting (Busy, busyNanos), never a wavefield or schedule
func (p *pool) worker(w int) {
	defer p.wg.Done()
	ks := p.scratch[w]
	for t := range p.tasks {
		t0 := time.Now()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.pan.CompareAndSwap(nil, &poolPanic{val: r})
				}
			}()
			t.run(ks)
		}()
		d := int64(time.Since(t0))
		p.busy[w] += d
		if t.busyNanos != nil {
			atomic.AddInt64(t.busyNanos, d)
		}
		t.wg.Done()
	}
}

// close stops the workers. All sweeps must have completed.
func (p *pool) close() {
	close(p.tasks)
	p.wg.Wait()
}

// Busy returns each worker's accumulated busy time. Only valid after
// close (the worker goroutines have exited, establishing the
// happens-before for the per-worker slots).
func (p *pool) Busy() []time.Duration {
	out := make([]time.Duration, p.workers)
	for w, n := range p.busy {
		out[w] = time.Duration(n)
	}
	return out
}

// Sweep sizing: chunks target 2 tasks per worker for load balance, but
// never fall below the minimum worth a channel round-trip; sweeps that
// fit in a single minimum chunk run inline on the rank goroutine. The
// choice never affects results — sweeps are conflict-free by
// construction (one color class, or disjoint point spans).
const (
	minElemChunk  = 8
	minPointChunk = 2048
)

// runInline executes one chunk on the calling rank's scratch, charging
// the busy counter the same way a worker would.
//
//specfem:nodeterminism busy-time attribution only: the measured nanos feed perf reporting (busyNanos), never a wavefield or schedule
func runInline(ks *kernelScratch, busyNanos *int64, fn func(*kernelScratch)) {
	t0 := time.Now()
	fn(ks)
	atomic.AddInt64(busyNanos, int64(time.Since(t0)))
}

// sweep is the shared dispatch protocol: split [0,n) into chunks of
// roughly n/(2*workers) but at least minChunk indices, run a sweep
// that fits a single chunk inline on the caller's scratch, otherwise
// submit the chunks and wait, re-raising the first chunk panic on the
// calling goroutine. Worker busy time is attributed to *busyNanos.
func (p *pool) sweep(rankKS *kernelScratch, n, minChunk int, busyNanos *int64,
	fn func(ks *kernelScratch, lo, hi int)) {

	if n <= 0 {
		return
	}
	chunk := (n + 2*p.workers - 1) / (2 * p.workers)
	if chunk < minChunk {
		chunk = minChunk
	}
	if n <= chunk {
		runInline(rankKS, busyNanos, func(ks *kernelScratch) { fn(ks, 0, n) })
		return
	}
	var wg sync.WaitGroup
	var pan atomic.Pointer[poolPanic]
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		lo := lo
		wg.Add(1)
		p.tasks <- poolTask{
			run:       func(ks *kernelScratch) { fn(ks, lo, hi) },
			busyNanos: busyNanos,
			wg:        &wg,
			pan:       &pan,
		}
	}
	wg.Wait()
	if pp := pan.Load(); pp != nil {
		panic(pp.val)
	}
}

// sweepElems runs fn over chunks of elems (one conflict-free color
// class) and returns when every chunk has completed. rankKS is the
// caller's inline scratch.
func (p *pool) sweepElems(rankKS *kernelScratch, elems []int32, busyNanos *int64,
	fn func(ks *kernelScratch, elems []int32)) {

	p.sweep(rankKS, len(elems), minElemChunk, busyNanos, func(ks *kernelScratch, lo, hi int) {
		fn(ks, elems[lo:hi])
	})
}

// sweepSpans runs fn over chunks of a span list of n points. A chunk
// holds at least minPointChunk points on average, so a list of one long
// run chunks [0,n) into minPointChunk-sized pieces or more (its spans
// are at most minPointChunk long) and a small list of many short runs
// under LTS runs inline. Spans are disjoint, and every
// point is written independently, so any chunking is bit-exact.
func (p *pool) sweepSpans(rankKS *kernelScratch, spans []span, n int, busyNanos *int64,
	fn func(spans []span)) {

	minChunk := 1
	if n > 0 {
		minChunk = max(1, minPointChunk*len(spans)/n)
	}
	p.sweep(rankKS, len(spans), minChunk, busyNanos, func(_ *kernelScratch, lo, hi int) {
		fn(spans[lo:hi])
	})
}
