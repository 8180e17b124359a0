package mpi

import "time"

// Request is the handle of a pending non-blocking receive posted with
// Irecv. It completes through Wait or a successful Test; completion
// matches against the endpoint's message queue by (source, tag), so
// several outstanding requests may complete in any order regardless of
// arrival order.
//
// Overlap accounting: the modeled network cost of the received message
// (latency + payload/bandwidth) is charged to the endpoint's virtual
// communication time, and the share of that cost that fits inside the
// window between posting the request and asking for completion is also
// credited as *hidden* time — communication overlapped with whatever
// the rank computed in between. Stats.Exposed reports what remains on
// the critical path.
type Request struct {
	c        *Comm
	src, tag int
	posted   time.Time
	// commAtPost and hiddenAtPost snapshot the rank's wall communication
	// time and cumulative hidden credit when the request was posted. The
	// overlap window excludes both: time the rank spent inside *other*
	// communication calls (sibling Waits, sends, reductions) is not
	// computation, and window time already credited as hidden to sibling
	// requests cannot hide this one too — the modeled endpoint transfers
	// messages serially, so k messages need k transfer times of
	// computation to all disappear.
	commAtPost   time.Duration
	hiddenAtPost time.Duration
	data         []float32
	done         bool
}

// Irecv posts a non-blocking receive for a message from rank src with
// the given tag. The returned request must be completed with Wait or
// Test; the message, whenever it arrives, stays queued until then.
func (c *Comm) Irecv(src, tag int) *Request {
	c.statMu.Lock()
	var r *Request
	if n := len(c.spare); n > 0 {
		r, c.spare[n-1] = c.spare[n-1], nil
		c.spare = c.spare[:n-1]
	} else {
		r = new(Request)
	}
	*r = Request{c: c, src: src, tag: tag, commAtPost: c.commTime, hiddenAtPost: c.hiddenTime}
	c.statMu.Unlock()
	r.posted = time.Now()
	return r
}

// Release ends a completed request and hands it back to this rank for
// Irecv to reuse; it may not be used afterwards. The payload stays with
// the caller, which owns it (Isend hands payloads over).
func (r *Request) Release() {
	if !r.done {
		panic("mpi: Release of an incomplete request")
	}
	c := r.c
	*r = Request{}
	c.statMu.Lock()
	c.spare = append(c.spare, r)
	c.statMu.Unlock()
}

// complete finalizes accounting once a payload has been matched.
// blocked is the wall time spent waiting inside Wait (zero for Test).
func (r *Request) complete(data []float32, blocked time.Duration) []float32 {
	r.data = data
	r.done = true
	c := r.c
	c.addComm(0, 0, blocked)
	elapsed := time.Since(r.posted)
	v := c.virtualRecvCost(4 * len(data))
	c.statMu.Lock()
	// The overlap window is the wall time between post and completion
	// that the rank spent *outside* communication calls (total elapsed
	// minus the growth of the rank's wall comm time — which includes
	// the blocked duration just charged, sibling Waits, and sends),
	// minus window time sibling requests already consumed as hidden.
	overlap := elapsed - (c.commTime - r.commAtPost) - (c.hiddenTime - r.hiddenAtPost)
	hidden := v
	if overlap < hidden {
		hidden = overlap
	}
	if hidden < 0 {
		hidden = 0
	}
	c.vcommTime += v
	c.hiddenTime += hidden
	c.statMu.Unlock()
	return data
}

// virtualRecvCost is the modeled receive-endpoint cost of one message
// on this world's virtual interconnect.
func (c *Comm) virtualRecvCost(bytes int) time.Duration {
	w := c.world
	v := w.latency + float64(bytes)/w.bandwidth
	return time.Duration(v * float64(time.Second))
}

// Wait blocks until the request's message is available and returns its
// payload. Calling Wait on a completed request returns the same payload
// again without further accounting.
func (r *Request) Wait() []float32 {
	if r.done {
		return r.data
	}
	start := time.Now()
	data := r.c.recvBlocking(r.src, r.tag)
	return r.complete(data, time.Since(start))
}

// Test polls for completion without blocking. It returns the payload
// and true if the message is available (or the request already
// completed), nil and false otherwise.
func (r *Request) Test() ([]float32, bool) {
	if r.done {
		return r.data, true
	}
	c := r.c
	c.mu.Lock()
	if c.poisoned {
		c.mu.Unlock()
		panic("mpi: world poisoned by peer rank failure")
	}
	data, ok := c.matchLocked(r.src, r.tag)
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	return r.complete(data, 0), true
}
