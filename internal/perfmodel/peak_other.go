//go:build !amd64

package perfmodel

// simd.Vector is false off amd64, so this is never reached.
func peakChainAVX2(iters int, x, c float32) float32 { panic("perfmodel: no vector body") }
