package perfmodel

// peakChainAVX2 runs iters rounds of acc = acc*x + c over twelve
// independent 8-lane accumulators (peak_amd64.s): 192 flops a round.
// Callers check simd.Vector first.
//
//go:noescape
func peakChainAVX2(iters int, x, c float32) float32
