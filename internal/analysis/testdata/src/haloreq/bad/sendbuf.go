package bad

import "mpi"

// Send-buffer fixtures: a slice handed to Isend is written again.

func fill(buf []float32) {}

func writeAfterSend(c *mpi.Comm) {
	buf := make([]float32, 4)
	c.Isend(1, 0, buf)
	buf[0] = 1 // want "assignment writes buf after it was handed to Isend"
}

func incrementAfterSend(c *mpi.Comm) {
	buf := make([]float32, 4)
	c.Isend(1, 0, buf[1:])
	buf[2]++ // want "increment writes buf after it was handed to Isend"
}

func copyAfterSend(c *mpi.Comm, src []float32) {
	buf := make([]float32, 4)
	c.Isend(1, 0, buf)
	copy(buf, src) // want "call copy writes buf after it was handed to Isend"
}

func packAfterSend(c *mpi.Comm) {
	buf := make([]float32, 4)
	c.Isend(1, 0, buf)
	fill(buf[:2]) // want "call fill writes buf after it was handed to Isend"
}

func sentTwice(c *mpi.Comm) {
	buf := make([]float32, 4)
	c.Isend(1, 0, buf)
	c.Isend(2, 0, buf) // want "call c.Isend writes buf after it was handed to Isend"
}

// The next iteration packs into the array the last one handed over.
func reusedAcrossPeers(c *mpi.Comm, peers []int) {
	buf := make([]float32, 4)
	for _, p := range peers {
		buf[0] = float32(p) // want "assignment writes buf after it was handed to Isend"
		c.Isend(p, 0, buf)
	}
}

type rank struct {
	c      *mpi.Comm
	outBuf []float32
}

// A per-rank pack buffer: the field keeps the array the receiver owns.
func (r *rank) sendAll(peers []int, n int) {
	for _, p := range peers {
		if cap(r.outBuf) < n {
			r.outBuf = make([]float32, n)
		}
		buf := r.outBuf[:n]
		fill(buf)
		r.c.Isend(p, 0, buf) // want "payload buf shares the array of r.outBuf"
	}
}

func (r *rank) sendField(p int) {
	r.c.Isend(p, 0, r.outBuf[:2]) // want "payload r.outBuf shares the array of r.outBuf"
}
