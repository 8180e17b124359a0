package good

import "mpi"

// Send-buffer fixtures: every slice handed to Isend is left alone.

func fill(buf []float32) {}

func freshPerPeer(c *mpi.Comm, peers []int) {
	for _, p := range peers {
		buf := make([]float32, 4)
		fill(buf)
		c.Isend(p, 0, buf)
		_ = len(buf) + cap(buf)
	}
}

func rebound(c *mpi.Comm) {
	buf := make([]float32, 4)
	c.Isend(1, 0, buf)
	buf = make([]float32, 4)
	buf[0] = 1
	c.Isend(2, 0, buf)
}

// Ping-pong: each round packs into the payload the last one received.
func pingPong(c *mpi.Comm, rounds int) {
	buf := make([]float32, 4)
	for r := 0; r < rounds; r++ {
		buf[0] = float32(r)
		req := c.Irecv(1, r)
		c.Isend(1, r, buf)
		buf = req.Wait()
	}
}

type exchange struct {
	c    *mpi.Comm
	bufs [][]float32
}

// The kept payload leaves the structure as it is handed over.
func (x *exchange) send(peers []int) {
	for i, p := range peers {
		buf := x.bufs[i]
		if cap(buf) < 4 {
			buf = make([]float32, 4)
		}
		fill(buf)
		x.c.Isend(p, 0, buf)
		x.bufs[i] = nil
	}
}
