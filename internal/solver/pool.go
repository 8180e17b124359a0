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

// pool is the compute of one solver run, sized by Options.Workers — the
// hybrid MPI+threads model, with ranks standing in for the processes
// and Workers for the cores of one node. Workers compute tokens cap the
// sweeps that run at once, whoever runs them, so 24 ranks on 8 cores do
// not oversubscribe the host. A step runs in one of two shapes, and
// neither changes a result (the sweeps are conflict-free, so the
// accumulation order is the colouring's):
//
//   - Inline: the rank takes a token for its step, runs every sweep
//     itself and hands the token back around each blocking wait
//     (holdCPU, idle) — the paper's one process per core. A step costs
//     no dispatch, but a rank cannot borrow a core another rank leaves
//     idle, so the busiest rank's serial sweeps bound the step.
//   - Chunked: the rank hands each sweep in chunks to Workers shared
//     worker goroutines, each of which takes a token per chunk. A busy
//     rank then spreads over every core, at a channel round trip per
//     chunk and a wait per colour class.
//
// The ranks sweep inline while the busiest one's sweeps take no longer
// than the chunked shape's step would: total/Workers, times chunkCost
// for the dispatch. Without that allowance the rule reads ranks >=
// Workers × busiest/mean. Rank 0 decides at the start of each of its
// steps from every rank's smoothed sweep time per step (observe,
// decide). Until every rank has finished one step the run keeps its
// starting shape, inline when the ranks are at least Workers.
type pool struct {
	workers int
	// tasks feeds the worker goroutines.
	tasks chan poolTask
	// slots holds the free compute tokens, numbered 0..workers-1.
	slots chan int
	// busy[t] is the sweep nanoseconds computed under token t. Only
	// the token's holder writes it; Busy() may only be called after
	// close.
	busy    []int64
	scratch []*kernelScratch
	// load[r] is rank r's smoothed sweep nanoseconds per step (0 until
	// its first step ends); inline is the shape rank 0 last chose.
	load   []atomic.Int64
	inline atomic.Bool
	wg     sync.WaitGroup
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

// newPool returns the compute of a run of ranks ranks on workers
// tokens and worker goroutines.
func newPool(workers, ranks int) *pool {
	workers = max(workers, 1)
	p := &pool{
		workers: workers,
		tasks:   make(chan poolTask, 4*workers),
		slots:   make(chan int, workers),
		busy:    make([]int64, workers),
		scratch: make([]*kernelScratch, workers),
		load:    make([]atomic.Int64, ranks),
	}
	p.inline.Store(ranks >= workers)
	for w := 0; w < workers; w++ {
		p.slots <- w
		p.scratch[w] = new(kernelScratch)
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// worker drains the task channel on a fixed scratch slot.
func (p *pool) worker(w int) {
	defer p.wg.Done()
	ks := p.scratch[w]
	for t := range p.tasks {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.pan.CompareAndSwap(nil, &poolPanic{val: r})
				}
			}()
			p.compute(ks, t.busyNanos, t.run)
		}()
		t.wg.Done()
	}
}

// close stops the workers. All sweeps must have completed.
func (p *pool) close() {
	close(p.tasks)
	p.wg.Wait()
}

// Busy returns each token's accumulated busy time. Only valid after
// close and after every rank has returned (the worker and rank
// goroutines have exited, establishing the happens-before for the
// slots).
func (p *pool) Busy() []time.Duration {
	out := make([]time.Duration, p.workers)
	for w, n := range p.busy {
		out[w] = time.Duration(n)
	}
	return out
}

// Sweep sizing: chunks target 2 tasks per worker for load balance, but
// never fall below the minimum worth a channel round-trip; a sweep that
// fits in a single minimum chunk runs on the rank goroutine, as does
// every sweep of a rank that sweeps inline. The choice never affects
// results — sweeps are conflict-free by construction (one color class,
// or disjoint point spans).
const (
	minElemChunk  = 8
	minPointChunk = 2048
)

// timed runs fn on ks, adds its duration to *busyNanos and returns it.
//
//specfem:nodeterminism busy-time attribution only: the measured nanos feed perf reporting and the shape choice (busyNanos, pool.load), never a wavefield or schedule
func timed(ks *kernelScratch, busyNanos *int64, fn func(*kernelScratch)) int64 {
	if sweepHook != nil {
		sweepHook(1)
		defer sweepHook(-1)
	}
	t0 := time.Now()
	fn(ks)
	d := int64(time.Since(t0))
	atomic.AddInt64(busyNanos, d)
	return d
}

// compute runs fn under a compute token of its own — a worker's chunk,
// or a sweep too small to split on a rank that holds none — and adds
// its time to the token's busy time and *busyNanos. The token goes
// back also when fn panics.
func (p *pool) compute(ks *kernelScratch, busyNanos *int64, fn func(*kernelScratch)) {
	tok := <-p.slots
	defer func() { p.slots <- tok }()
	p.busy[tok] += timed(ks, busyNanos, fn)
}

// sweepHook, when non-nil, runs as a sweep or chunk starts (+1) and
// ends (-1): the tests' window on how many compute at once.
var sweepHook func(delta int)

// sweep is the shared dispatch protocol. A rank that holds a compute
// token (held) runs the whole sweep itself. Otherwise [0,n) is split
// into chunks of roughly n/(2*workers) but at least minChunk indices:
// a sweep that fits a single chunk runs on the caller's scratch under a
// token of its own, a larger one is submitted to the workers and waited
// for, re-raising the first chunk panic on the calling goroutine. Busy
// time is attributed to *busyNanos.
func (p *pool) sweep(rankKS *kernelScratch, held bool, n, minChunk int, busyNanos *int64,
	fn func(ks *kernelScratch, lo, hi int)) {

	if n <= 0 {
		return
	}
	whole := func(ks *kernelScratch) { fn(ks, 0, n) }
	if held {
		timed(rankKS, busyNanos, whole)
		return
	}
	chunk := max((n+2*p.workers-1)/(2*p.workers), minChunk)
	if n <= chunk {
		p.compute(rankKS, busyNanos, whole)
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
// caller's inline scratch and held whether it holds a compute token.
func (p *pool) sweepElems(rankKS *kernelScratch, held bool, elems []int32, busyNanos *int64,
	fn func(ks *kernelScratch, elems []int32)) {

	p.sweep(rankKS, held, len(elems), minElemChunk, busyNanos, func(ks *kernelScratch, lo, hi int) {
		fn(ks, elems[lo:hi])
	})
}

// sweepSpans runs fn over the points [0, n) in chunks of whole spans of
// minPointChunk points (the last span shorter), so every chunk starts
// on a page boundary. Every point is written independently, so any
// chunking is bit-exact.
func (p *pool) sweepSpans(rankKS *kernelScratch, held bool, n int, busyNanos *int64, fn func(lo, hi int)) {
	spans := (n + minPointChunk - 1) / minPointChunk
	p.sweep(rankKS, held, spans, 1, busyNanos, func(_ *kernelScratch, lo, hi int) {
		fn(lo*minPointChunk, min(hi*minPointChunk, n))
	})
}

// inlineStep reports whether rank sweeps inline in the step it is
// starting; rank 0 first re-decides the run's shape.
func (p *pool) inlineStep(rank int) bool {
	if shapeHook != nil {
		return shapeHook(rank)
	}
	if rank == 0 {
		p.decide()
	}
	return p.inline.Load()
}

// shapeHook, when non-nil, picks each rank's shape per step in place of
// the run's choice: the tests' way to run both shapes, and mixed steps.
var shapeHook func(rank int) (inline bool)

// chunkCost is the chunked shape's step over its ideal total/Workers,
// as a fraction: what the round trip per chunk and the wait per colour
// class add. On the 6-rank doubled PREM globe at Workers 2 (2-vCPU
// Xeon), all-chunked runs made 7–10 % fewer steps per second than
// all-inline ones while the busiest rank carried about half the sweep
// time, which puts a chunked step near 1.2 times the ideal; 5/4 rounds
// that toward inline. It is unmeasured at Workers 4 and more.
const chunkCost = 1.25

// decide sets the run's shape from the ranks' loads: inline while the
// busiest rank's load is at most the chunked step's estimate, total /
// Workers × chunkCost. Until every rank has a load the shape stays as
// it is.
func (p *pool) decide() {
	var total, busiest int64
	for i := range p.load {
		l := p.load[i].Load()
		if l == 0 {
			return
		}
		total += l
		busiest = max(busiest, l)
	}
	p.inline.Store(chunkCost*float64(total) >= float64(int64(p.workers)*busiest))
}

// observe folds the sweep nanoseconds d of one of rank's steps into its
// load, an exponential average over about four steps (the first step
// sets it).
func (p *pool) observe(rank int, d int64) {
	l := p.load[rank].Load()
	if l == 0 {
		l = d
	} else {
		l += (d - l) / 4
	}
	p.load[rank].Store(max(l, 1))
}

// holdCPU takes a compute token for the rank, waiting for one to come
// free. The rank's sweep time until it hands the token back counts
// toward the token's busy time.
func (rs *rankState) holdCPU() {
	rs.slot = <-rs.pool.slots
	rs.heldFrom = rs.sweepBusy()
}

// releaseCPU hands the rank's compute token back, if it holds one.
func (rs *rankState) releaseCPU() {
	if rs.slot < 0 {
		return
	}
	rs.pool.busy[rs.slot] += rs.sweepBusy() - rs.heldFrom
	rs.pool.slots <- rs.slot
	rs.slot = -1
}

// idle runs wait, which may block on another rank, without the rank's
// compute token, so a waiting rank never keeps a computing one out.
func (rs *rankState) idle(wait func()) {
	if rs.slot < 0 {
		wait()
		return
	}
	rs.releaseCPU()
	wait()
	rs.holdCPU()
}

// sweepBusy is the rank's sweep time so far, in nanoseconds.
func (rs *rankState) sweepBusy() int64 {
	return atomic.LoadInt64(&rs.forceBusy) + atomic.LoadInt64(&rs.updateBusy)
}
