// Package mpi is a fixture double mirroring the request API shape of
// specglobe/internal/mpi; the analyzers match it by package base name.
package mpi

// Comm is one rank's communicator.
type Comm struct{}

// Request is a pending non-blocking receive.
type Request struct{}

// Irecv posts a non-blocking receive.
func (c *Comm) Irecv(src, tag int) *Request { return &Request{} }

// Isend posts a non-blocking send (no completion handle in this model).
func (c *Comm) Isend(dst, tag int, buf []float32) {}

// Wait blocks until the message arrives and returns the payload.
func (r *Request) Wait() []float32 { return nil }

// Test polls for completion.
func (r *Request) Test() ([]float32, bool) { return nil, false }

// Waitall completes a batch of requests.
func Waitall(reqs []*Request) {}
