package mpi

import (
	"testing"
	"time"
)

// An Irecv posted before the message exists must still complete once
// the sender delivers it.
func TestIrecvWait(t *testing.T) {
	w := NewWorld(2)
	var got []float32
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			req := c.Irecv(1, 7)
			got = req.Wait()
		} else {
			c.Isend(0, 7, []float32{42})
		}
	})
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("irecv got %v", got)
	}
}

// Requests must match by tag, not arrival order: messages arrive as
// (tag 2, tag 1) but the requests complete in (tag 1, tag 2) order.
func TestIrecvOutOfOrderTags(t *testing.T) {
	w := NewWorld(2)
	var a, b []float32
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Isend(1, 2, []float32{22})
			c.Isend(1, 1, []float32{11})
			c.Barrier()
		} else {
			c.Barrier() // both messages queued before any request completes
			r1 := c.Irecv(0, 1)
			r2 := c.Irecv(0, 2)
			a = r1.Wait()
			b = r2.Wait()
		}
	})
	if a[0] != 11 || b[0] != 22 {
		t.Errorf("out-of-order tag matching failed: got %v %v", a, b)
	}
}

// Waitall must return payloads in request order regardless of the order
// the messages were sent in.
func TestWaitallOrdering(t *testing.T) {
	const n = 5
	w := NewWorld(n)
	var got [][]float32
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			// Post requests for ranks 1..n-1 in ascending order; peers
			// send in effectively arbitrary goroutine order.
			reqs := make([]*Request, 0, n-1)
			for r := 1; r < n; r++ {
				reqs = append(reqs, c.Irecv(r, 3))
			}
			got = Waitall(reqs)
		} else {
			c.Isend(0, 3, []float32{float32(c.Rank() * 100)})
		}
	})
	if len(got) != n-1 {
		t.Fatalf("waitall returned %d payloads", len(got))
	}
	for i, p := range got {
		want := float32((i + 1) * 100)
		if len(p) != 1 || p[0] != want {
			t.Errorf("waitall[%d] = %v want %v", i, p, want)
		}
	}
}

// Test must poll without blocking, and a completed request must keep
// returning its payload from both Test and Wait.
func TestRequestTest(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			req := c.Irecv(1, 4)
			if _, ok := req.Test(); ok {
				t.Error("Test succeeded before the message was sent")
			}
			c.Barrier() // let rank 1 send
			// The message is in flight; spin until Test sees it.
			var data []float32
			for {
				var ok bool
				if data, ok = req.Test(); ok {
					break
				}
				time.Sleep(50 * time.Microsecond)
			}
			if data[0] != 5 {
				t.Errorf("test payload %v", data)
			}
			if again, ok := req.Test(); !ok || again[0] != 5 {
				t.Error("completed request lost its payload on re-Test")
			}
			if w := req.Wait(); w[0] != 5 {
				t.Error("completed request lost its payload on Wait")
			}
		} else {
			c.Barrier()
			c.Isend(0, 4, []float32{5})
		}
	})
}

// Overlapped (hidden) time accounting: a receive that is posted early
// and completed after computation must hide virtual time; one waited on
// at once hides only the instants between post and Wait; and hidden time
// never exceeds total virtual time. A completed request charges virtual
// time exactly once.
func TestOverlapAccounting(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			req := c.Irecv(1, 1)
			c.Barrier()                      // message is queued after this
			time.Sleep(2 * time.Millisecond) // "computation" window
			req.Wait()
			req.Wait() // idempotent: no double accounting
		} else {
			c.Isend(0, 1, make([]float32, 250000)) // 1 MB: v = 5us + 500us
			c.Barrier()
		}
	})
	s0 := w.Comm(0).Stats()
	if s0.VirtualCommTime <= 0 {
		t.Fatal("no virtual time charged to the receiver")
	}
	if s0.HiddenCommTime <= 0 {
		t.Error("overlapped receive hid no time")
	}
	if s0.HiddenCommTime > s0.VirtualCommTime {
		t.Errorf("hidden %v exceeds virtual %v", s0.HiddenCommTime, s0.VirtualCommTime)
	}
	// The 2 ms window is far wider than the ~505 us modeled transfer, so
	// the whole transfer should be hidden and Exposed() ~ 0.
	if s0.Exposed() != s0.VirtualCommTime-s0.HiddenCommTime {
		t.Error("Exposed() inconsistent with components")
	}
	if s0.HiddenCommTime != w.Comm(0).virtualRecvCost(4*250000) {
		t.Errorf("hidden %v, want full transfer cost %v",
			s0.HiddenCommTime, w.Comm(0).virtualRecvCost(4*250000))
	}

	// Waited on at once, with the message sent 2 ms later: the window
	// outside the blocked Wait is a few instructions, far below the
	// ~505 us transfer.
	w2 := NewWorld(2)
	w2.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Irecv(1, 1).Wait()
		} else {
			time.Sleep(2 * time.Millisecond)
			c.Isend(0, 1, make([]float32, 250000))
		}
	})
	s2 := w2.Comm(0).Stats()
	if v := w2.Comm(0).virtualRecvCost(4 * 250000); s2.HiddenCommTime >= v/2 {
		t.Errorf("a receive waited on at once hid %v of its %v transfer", s2.HiddenCommTime, v)
	}
}

// Time spent blocked in a sibling request's Wait is communication, not
// computation: a request that completes right after the rank blocked in
// another Wait must not credit those ~5 ms as hidden. Rank 0 computes
// nothing, so its hidden credit is bounded by the time it spent outside
// Wait: its span from the first Irecv to the last Wait's return minus
// the wall time Wait charged as blocked. A preemption anywhere moves
// both sides of the comparison together.
func TestOverlapExcludesSiblingWaitTime(t *testing.T) {
	const payload = 250000 // 1 MB -> ~505 us modeled transfer
	w := NewWorld(2)
	var span time.Duration
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			start := time.Now()
			r1 := c.Irecv(1, 1)
			r2 := c.Irecv(1, 2)
			r1.Wait() // blocks ~5 ms until the delayed sends arrive
			r2.Wait() // completes instantly; the 5 ms were not computation
			span = time.Since(start)
		} else {
			time.Sleep(5 * time.Millisecond)
			c.Isend(0, 1, make([]float32, payload))
			c.Isend(0, 2, make([]float32, payload))
		}
	})
	s := w.Comm(0).Stats()
	if outside := span - s.CommTime; s.HiddenCommTime > outside {
		t.Errorf("hidden %v exceeds the %v rank 0 spent outside Wait (span %v, blocked %v)",
			s.HiddenCommTime, outside, span, s.CommTime)
	}
}

// A rank panic must poison blocked Wait calls so the world fails
// instead of deadlocking.
func TestIrecvPoison(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic to propagate through Wait")
		}
	}()
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("simulated node failure")
		}
		c.Irecv(1, 5).Wait() // never satisfied
	})
}

// Concurrently outstanding requests share one compute window: the
// total hidden credit can never exceed the wall time of the window,
// however many messages were in flight (the modeled endpoint transfers
// serially, so k messages need k transfer times to all be hidden).
func TestHiddenSharedWindowNotDoubleCounted(t *testing.T) {
	const payload = 2500000 // 10 MB -> ~5 ms modeled transfer each
	w := NewWorld(2)
	var window time.Duration
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Barrier() // both messages are queued after this
			start := time.Now()
			r1 := c.Irecv(1, 1)
			r2 := c.Irecv(1, 2)
			time.Sleep(6 * time.Millisecond) // shared "computation" window
			r1.Wait()
			r2.Wait()
			window = time.Since(start)
		} else {
			c.Isend(0, 1, make([]float32, payload))
			c.Isend(0, 2, make([]float32, payload))
			c.Barrier()
		}
	})
	s := w.Comm(0).Stats()
	if s.HiddenCommTime <= 0 {
		t.Fatal("nothing hidden despite a real compute window")
	}
	// Without window sharing both 5 ms transfers would count as fully
	// hidden (10 ms) inside a ~6 ms window.
	if s.HiddenCommTime > window {
		t.Errorf("hidden %v exceeds the whole post-to-completion window %v", s.HiddenCommTime, window)
	}
}

// ResetStats between an Irecv post and its Wait must not corrupt the
// overlap window: the snapshot rides a monotonic counter, so a request
// whose whole window was spent blocked still hides (almost) nothing.
func TestResetStatsDuringOutstandingIrecv(t *testing.T) {
	const payload = 250000 // ~505 us modeled transfer
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			req := c.Irecv(1, 1)
			c.ResetStats()
			req.Wait() // blocks ~5 ms; none of it is computation
		} else {
			time.Sleep(5 * time.Millisecond)
			c.Isend(0, 1, make([]float32, payload))
		}
	})
	if h := w.Comm(0).Stats().HiddenCommTime; h > w.Comm(0).virtualRecvCost(4*payload)/2 {
		t.Errorf("hidden %v after ResetStats despite a fully blocked window", h)
	}
}

// ResetStats must also clear hidden time.
func TestResetStatsClearsHidden(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			req := c.Irecv(1, 0)
			c.Barrier()
			time.Sleep(time.Millisecond)
			req.Wait()
			c.ResetStats()
		} else {
			c.Isend(0, 0, make([]float32, 100))
			c.Barrier()
			c.ResetStats()
		}
	})
	if s := w.Stats(); s.HiddenCommTime != 0 || s.VirtualCommTime != 0 {
		t.Errorf("stats not reset: %+v", s)
	}
}
