package mpi

import (
	"math/rand"
	"sync"
	"testing"
)

func TestRingPass(t *testing.T) {
	const n = 8
	w := NewWorld(n)
	results := make([]float32, n)
	w.Run(func(c *Comm) {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		req := c.Irecv(prev, 1)
		c.Isend(next, 1, []float32{float32(c.Rank())})
		got := req.Wait()
		results[c.Rank()] = got[0]
	})
	for r := 0; r < n; r++ {
		want := float32((r + n - 1) % n)
		if results[r] != want {
			t.Errorf("rank %d received %v want %v", r, results[r], want)
		}
	}
}

func TestTagMatching(t *testing.T) {
	w := NewWorld(2)
	var gotA, gotB []float32
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			// Send tag 2 first, then tag 1: receiver asks in the
			// opposite order and must match by tag, not arrival.
			c.Isend(1, 2, []float32{22})
			c.Isend(1, 1, []float32{11})
		} else {
			gotA = c.Irecv(0, 1).Wait()
			gotB = c.Irecv(0, 2).Wait()
		}
	})
	if gotA[0] != 11 || gotB[0] != 22 {
		t.Errorf("tag matching failed: got %v %v", gotA, gotB)
	}
}

func TestAnySource(t *testing.T) {
	const n = 5
	w := NewWorld(n)
	var sum float32
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 1; i < n; i++ {
				sum += c.Irecv(AnySource, 3).Wait()[0]
			}
		} else {
			c.Isend(0, 3, []float32{float32(c.Rank())})
		}
	})
	if sum != 1+2+3+4 {
		t.Errorf("any-source sum = %v", sum)
	}
}

func TestSendRecvExchange(t *testing.T) {
	w := NewWorld(2)
	out := make([]float32, 2)
	w.Run(func(c *Comm) {
		partner := 1 - c.Rank()
		req := c.Irecv(partner, 9)
		c.Isend(partner, 9, []float32{float32(10 + c.Rank())})
		out[c.Rank()] = req.Wait()[0]
	})
	if out[0] != 11 || out[1] != 10 {
		t.Errorf("exchange got %v", out)
	}
}

// Isend hands the payload over without a copy, and the receiver owns
// it: as in the halo exchange, each rank packs its next send into the
// payload it last received, so after the first round the same two arrays
// go back and forth, and every round's values must still arrive intact.
func TestIsendHandsOverPayload(t *testing.T) {
	const rounds, n = 50, 300
	w := NewWorld(2)
	var arrays [2]map[*float32]bool
	w.Run(func(c *Comm) {
		me, peer := c.Rank(), 1-c.Rank()
		seen := map[*float32]bool{}
		var buf []float32
		for r := 0; r < rounds; r++ {
			if buf == nil {
				buf = make([]float32, n)
			}
			for i := range buf {
				buf[i] = float32((2*r+me)*n + i)
			}
			req := c.Irecv(peer, r)
			c.Isend(peer, r, buf) // buf is the peer's now
			got := req.Wait()
			req.Release()
			seen[&got[0]] = true
			for i, v := range got {
				if want := float32((2*r+peer)*n + i); v != want {
					t.Errorf("rank %d round %d: value %d is %g, want %g", me, r, i, v, want)
					break
				}
			}
			buf = got
		}
		arrays[me] = seen
	})
	for r, seen := range arrays {
		if len(seen) != 2 {
			t.Errorf("rank %d received %d distinct arrays, want the 2 that circulate", r, len(seen))
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	const n = 7
	w := NewWorld(n)
	results := make([][]float64, n)
	w.Run(func(c *Comm) {
		buf := []float64{float64(c.Rank()), 1}
		results[c.Rank()] = c.Allreduce(OpSum, buf)
	})
	wantSum := float64(n*(n-1)) / 2
	for r := 0; r < n; r++ {
		if results[r][0] != wantSum || results[r][1] != n {
			t.Errorf("rank %d allreduce got %v", r, results[r])
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	maxs := make([]float64, n)
	mins := make([]float64, n)
	w.Run(func(c *Comm) {
		v := float64(c.Rank()*c.Rank()) - 3
		maxs[c.Rank()] = c.AllreduceScalar(OpMax, v)
		mins[c.Rank()] = c.AllreduceScalar(OpMin, v)
	})
	for r := 0; r < n; r++ {
		if maxs[r] != 22 || mins[r] != -3 {
			t.Errorf("rank %d max=%v min=%v", r, maxs[r], mins[r])
		}
	}
}

// Successive collectives must not interfere (generation handling).
func TestRepeatedCollectives(t *testing.T) {
	const n, iters = 4, 50
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		for it := 0; it < iters; it++ {
			got := c.AllreduceScalar(OpSum, float64(it))
			if got != float64(n*it) {
				t.Errorf("iter %d: got %v want %v", it, got, n*it)
			}
			c.Barrier()
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	var mu sync.Mutex
	phase1 := 0
	violated := false
	w.Run(func(c *Comm) {
		mu.Lock()
		phase1++
		mu.Unlock()
		c.Barrier()
		mu.Lock()
		if phase1 != n {
			violated = true
		}
		mu.Unlock()
	})
	if violated {
		t.Error("a rank passed the barrier before all ranks arrived")
	}
}

func TestStatsAccounting(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Isend(1, 0, make([]float32, 100))
		} else {
			c.Irecv(0, 0).Wait()
		}
		c.Barrier()
	})
	s := w.Stats()
	if s.BytesSent != 400 {
		t.Errorf("bytes sent %d want 400", s.BytesSent)
	}
	if s.Messages != 1 {
		t.Errorf("messages %d want 1", s.Messages)
	}
	if s.CommTime <= 0 {
		t.Errorf("comm time %v not positive", s.CommTime)
	}
}

func TestResetStats(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Isend(1, 0, make([]float32, 10))
		} else {
			c.Irecv(0, 0).Wait()
		}
		c.ResetStats()
	})
	if s := w.Stats(); s.BytesSent != 0 || s.Messages != 0 {
		t.Errorf("stats not reset: %+v", s)
	}
}

func TestRankPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic to propagate from failed rank")
		}
	}()
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("simulated node failure")
		}
		// Other ranks block on a message that never arrives; the
		// poison must wake them so Run can re-raise the panic.
		c.Irecv(1, 5).Wait()
	})
}

func TestNewWorldPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

// Stress: random pairwise exchanges must all complete (no lost messages,
// no deadlock) across many goroutines.
func TestManyRanksStress(t *testing.T) {
	const n = 24
	w := NewWorld(n)
	rng := rand.New(rand.NewSource(42))
	// Random permutation pairing: rank i exchanges with perm[i] where
	// perm is an involution.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = -1
	}
	order := rng.Perm(n)
	for i := 0; i+1 < n; i += 2 {
		a, b := order[i], order[i+1]
		perm[a], perm[b] = b, a
	}
	w.Run(func(c *Comm) {
		p := perm[c.Rank()]
		if p < 0 {
			return
		}
		for iter := 0; iter < 20; iter++ {
			req := c.Irecv(p, iter)
			c.Isend(p, iter, []float32{float32(c.Rank()*1000 + iter)})
			got := req.Wait()
			req.Release()
			want := float32(p*1000 + iter)
			if got[0] != want {
				t.Errorf("rank %d iter %d: got %v want %v", c.Rank(), iter, got[0], want)
			}
		}
	})
}

func BenchmarkHaloExchange(b *testing.B) {
	const n = 4
	w := NewWorld(n)
	payload := make([]float32, 1500) // typical face buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *Comm) {
			partner := c.Rank() ^ 1
			req := c.Irecv(partner, 0)
			c.Isend(partner, 0, payload)
			req.Wait()
		})
	}
}

func BenchmarkAllreduce(b *testing.B) {
	const n = 8
	w := NewWorld(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *Comm) {
			c.AllreduceScalar(OpSum, 1)
		})
	}
}

// A custom interconnect must scale the virtual time accounting: ten
// times the latency and a tenth the bandwidth make every exchanged
// message cost more virtual time, with wall behavior unchanged.
func TestWorldInterconnectOptions(t *testing.T) {
	run := func(opts Options) Stats {
		w := NewWorldWith(2, opts)
		w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				c.Isend(1, 7, make([]float32, 1000))
			} else {
				c.Irecv(0, 7).Wait()
			}
		})
		return w.Stats()
	}
	base := run(Options{})
	slow := run(Options{LatencyUS: 50, LinkBWGBs: 0.2})
	if slow.VirtualCommTime <= base.VirtualCommTime {
		t.Fatalf("slow interconnect virtual time %v not above default %v",
			slow.VirtualCommTime, base.VirtualCommTime)
	}
	// The default must match the documented SeaStar2 constants.
	def := Options{}
	if def.latencySeconds() != DefaultLinkLatency || def.bandwidthBytes() != DefaultLinkBandwidth {
		t.Fatalf("zero options resolve to %g s / %g B/s", def.latencySeconds(), def.bandwidthBytes())
	}
	got := Options{LatencyUS: 2.5, LinkBWGBs: 1.5}
	if s := got.latencySeconds(); s < 2.4e-6 || s > 2.6e-6 {
		t.Fatalf("latency conversion wrong: %g s", s)
	}
	if b := got.bandwidthBytes(); b != 1.5e9 {
		t.Fatalf("bandwidth conversion wrong: %g B/s", b)
	}
}
