// Package mpi is an in-process message-passing runtime that stands in for
// MPI in this reproduction. Each rank runs as a goroutine; point-to-point
// messages and collectives are implemented over shared queues with
// condition variables.
//
// The substitution (documented in DESIGN.md) keeps the calls the solver
// makes — non-blocking halo sends, tag-matched non-blocking receives and
// a deterministic sum/max reduction — while running on a single machine.
// Every call is accounted (bytes, message count, blocked wall time,
// modeled network time and the share of it hidden behind computation),
// and these Stats are the run's one record of communication: the
// IPM-style measurements of the paper's section 5 (communication time in
// the main solver loop as a fraction of total execution time) read them.
package mpi

import (
	"fmt"
	"sync"
	"time"
)

// Default virtual interconnect parameters, SeaStar2-class (the XT4
// machines of the paper): per-message latency and sustained link
// bandwidth. Because the simulated ranks share one host, wall-clock
// blocking measures scheduler contention rather than the network; the
// runtime therefore also accounts a deterministic *virtual* network
// time per rank (latency + bytes/bandwidth at each endpoint), which is
// what the IPM-style communication measurements report.
const (
	DefaultLinkLatency   = 5e-6  // seconds per message endpoint
	DefaultLinkBandwidth = 2.0e9 // bytes per second
)

// Options configure a world's virtual interconnect. The units mirror
// the perfmodel machine catalog so a catalog entry plumbs straight
// through: latency in microseconds per message endpoint, sustained link
// bandwidth in GB/s. Zero fields select the SeaStar2 defaults.
type Options struct {
	LatencyUS float64
	LinkBWGBs float64
}

// latencySeconds and bandwidthBytes resolve the options to SI units.
func (o Options) latencySeconds() float64 {
	if o.LatencyUS <= 0 {
		return DefaultLinkLatency
	}
	return o.LatencyUS * 1e-6
}

func (o Options) bandwidthBytes() float64 {
	if o.LinkBWGBs <= 0 {
		return DefaultLinkBandwidth
	}
	return o.LinkBWGBs * 1e9
}

// message is one in-flight point-to-point payload.
type message struct {
	src, tag int
	data     []float32
}

// World is a communicator spanning a fixed number of ranks.
type World struct {
	n int
	// latency and bandwidth are the resolved virtual interconnect
	// parameters every endpoint charges (seconds per message endpoint,
	// bytes per second).
	latency   float64
	bandwidth float64
	comms     []*Comm

	// collective (Allreduce) state
	colMu    sync.Mutex
	colCond  *sync.Cond
	colGen   int
	colCount int
	colParts [][]float64
	colOut   []float64
}

// NewWorld creates a communicator with n ranks on the default
// (SeaStar2-class) virtual interconnect.
func NewWorld(n int) *World { return NewWorldWith(n, Options{}) }

// NewWorldWith creates a communicator with n ranks whose virtual
// network time is charged with the given interconnect parameters —
// the hook that lets the FIG6/OVERLAP experiments model each machine
// of the catalog instead of hard-coding the XT4 SeaStar2.
func NewWorldWith(n int, opts Options) *World {
	if n < 1 {
		panic(fmt.Sprintf("mpi: world size must be >= 1, got %d", n))
	}
	w := &World{n: n, latency: opts.latencySeconds(), bandwidth: opts.bandwidthBytes()}
	w.colCond = sync.NewCond(&w.colMu)
	w.comms = make([]*Comm, n)
	for i := range w.comms {
		c := &Comm{world: w, rank: i}
		c.cond = sync.NewCond(&c.mu)
		w.comms[i] = c
	}
	return w
}

// Comm returns the communicator endpoint for a rank.
func (w *World) Comm(rank int) *Comm { return w.comms[rank] }

// Run executes body once per rank, each in its own goroutine, and blocks
// until all ranks return. A panic in any rank is re-raised in the caller
// after the others finish, so test failures surface instead of hanging.
func (w *World) Run(body func(c *Comm)) {
	var wg sync.WaitGroup
	panics := make([]any, w.n)
	for r := 0; r < w.n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = p
					// Unblock peers waiting on this rank so the
					// program fails instead of deadlocking.
					w.poison()
				}
			}()
			body(w.comms[rank])
		}(r)
	}
	wg.Wait()
	for r, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("mpi: rank %d panicked: %v", r, p))
		}
	}
}

// poison wakes every waiter; used after a rank panic.
func (w *World) poison() {
	for _, c := range w.comms {
		c.mu.Lock()
		c.poisoned = true
		c.cond.Broadcast()
		c.mu.Unlock()
	}
	w.colMu.Lock()
	w.colCond.Broadcast()
	w.colMu.Unlock()
}

// Stats aggregates communication accounting across all ranks.
type Stats struct {
	BytesSent int64
	Messages  int64
	// CommTime is the total wall time all ranks spent inside
	// communication calls (sends, blocked Waits, reductions). On an
	// oversubscribed host this mostly measures scheduling, so
	// performance models use VirtualCommTime instead.
	CommTime time.Duration
	// VirtualCommTime is the modeled network time: per message,
	// latency plus payload/bandwidth charged at each endpoint — the
	// quantity IPM reports as "total MPI time by all processors".
	VirtualCommTime time.Duration
	// HiddenCommTime is the part of VirtualCommTime that was overlapped
	// with computation: for each receive, the modeled transfer time
	// that fit inside the window between posting the Irecv and
	// completing it with Wait or Test.
	HiddenCommTime time.Duration
	// MaxRankCommTime is the largest per-rank wall communication time.
	MaxRankCommTime time.Duration
}

// Exposed returns the virtual communication time left on the critical
// path after overlap: VirtualCommTime minus HiddenCommTime. This is the
// quantity the section 5 comm-fraction measurements should report for a
// schedule that hides halo exchanges behind computation.
func (s Stats) Exposed() time.Duration {
	e := s.VirtualCommTime - s.HiddenCommTime
	if e < 0 {
		return 0
	}
	return e
}

// Stats returns the aggregate communication statistics for the world.
func (w *World) Stats() Stats {
	var s Stats
	for _, c := range w.comms {
		cs := c.Stats()
		s.BytesSent += cs.BytesSent
		s.Messages += cs.Messages
		s.CommTime += cs.CommTime
		s.VirtualCommTime += cs.VirtualCommTime
		s.HiddenCommTime += cs.HiddenCommTime
		if cs.CommTime > s.MaxRankCommTime {
			s.MaxRankCommTime = cs.CommTime
		}
	}
	return s
}

// Comm is one rank's endpoint into the world.
type Comm struct {
	world *World
	rank  int

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []message
	poisoned bool

	statMu     sync.Mutex
	bytesSent  int64
	messages   int64
	commTime   time.Duration
	vcommTime  time.Duration
	hiddenTime time.Duration
	// spare holds the rank's released requests for Irecv to reuse
	// (under statMu).
	spare []*Request
}

// Rank returns this endpoint's rank id.
func (c *Comm) Rank() int { return c.rank }

// Stats returns this rank's communication accounting.
func (c *Comm) Stats() Stats {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	return Stats{BytesSent: c.bytesSent, Messages: c.messages,
		CommTime: c.commTime, VirtualCommTime: c.vcommTime,
		HiddenCommTime: c.hiddenTime}
}

func (c *Comm) addComm(bytes int64, msgs int64, d time.Duration) {
	c.statMu.Lock()
	c.bytesSent += bytes
	c.messages += msgs
	c.commTime += d
	if msgs > 0 || bytes > 0 {
		w := c.world
		v := float64(msgs)*w.latency + float64(bytes)/w.bandwidth
		c.vcommTime += time.Duration(v * float64(time.Second))
	}
	c.statMu.Unlock()
}

// Isend posts a non-blocking send of data to rank dst with the given
// tag. The message takes data over without a copy (MPI_Isend with the
// buffer handed to the receiver): the caller must not touch data after
// the call, and the receiver owns it from then on. specfemvet's haloreq
// check flags a write to a slice after it was handed to Isend.
func (c *Comm) Isend(dst, tag int, data []float32) {
	start := time.Now()
	d := c.world.comms[dst]
	d.mu.Lock()
	d.queue = append(d.queue, message{src: c.rank, tag: tag, data: data})
	d.cond.Broadcast()
	d.mu.Unlock()
	c.addComm(int64(4*len(data)), 1, time.Since(start))
}

// matchLocked scans the queue for a message with matching source and
// tag and removes it. Caller holds c.mu.
func (c *Comm) matchLocked(src, tag int) ([]float32, bool) {
	for i := range c.queue {
		m := c.queue[i]
		if m.tag == tag && m.src == src {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return m.data, true
		}
	}
	return nil, false
}

// recvBlocking blocks until a matching message arrives and returns its
// payload without any statistics accounting (callers account).
func (c *Comm) recvBlocking(src, tag int) []float32 {
	c.mu.Lock()
	for {
		if c.poisoned {
			c.mu.Unlock()
			panic("mpi: world poisoned by peer rank failure")
		}
		if data, ok := c.matchLocked(src, tag); ok {
			c.mu.Unlock()
			return data
		}
		c.cond.Wait()
	}
}

func (c *Comm) poisonedLocked() bool {
	c.mu.Lock()
	p := c.poisoned
	c.mu.Unlock()
	return p
}

// ReduceOp selects the elementwise reduction applied by Allreduce.
type ReduceOp int

const (
	OpSum ReduceOp = iota
	OpMax
)

// Allreduce combines buf elementwise across all ranks and returns the
// result (identical on every rank). Contributions are reduced in rank
// order, so results are bitwise deterministic run to run.
func (c *Comm) Allreduce(op ReduceOp, buf []float64) []float64 {
	start := time.Now()
	w := c.world
	w.colMu.Lock()
	if w.colParts == nil {
		w.colParts = make([][]float64, w.n)
	}
	gen := w.colGen
	cp := make([]float64, len(buf))
	copy(cp, buf)
	w.colParts[c.rank] = cp
	w.colCount++
	if w.colCount == w.n {
		out := make([]float64, len(buf))
		copy(out, w.colParts[0])
		for r := 1; r < w.n; r++ {
			p := w.colParts[r]
			if len(p) != len(out) {
				w.colMu.Unlock()
				panic("mpi: allreduce length mismatch across ranks")
			}
			for i := range out {
				switch op {
				case OpSum:
					out[i] += p[i]
				case OpMax:
					if p[i] > out[i] {
						out[i] = p[i]
					}
				}
			}
		}
		w.colOut = out
		w.colCount = 0
		w.colGen++
		for r := range w.colParts {
			w.colParts[r] = nil
		}
		w.colCond.Broadcast()
	} else {
		for w.colGen == gen && !c.poisonedLocked() {
			w.colCond.Wait()
		}
	}
	res := make([]float64, len(buf))
	copy(res, w.colOut)
	w.colMu.Unlock()
	c.addComm(int64(8*len(buf)), 1, time.Since(start))
	return res
}

// AllreduceScalar is Allreduce for a single value.
func (c *Comm) AllreduceScalar(op ReduceOp, v float64) float64 {
	return c.Allreduce(op, []float64{v})[0]
}
