package solver

import (
	"math"

	"specglobe/internal/simd"
)

// Subnormal flush. A wavefront's numerical domain of influence grows
// one element per step and its amplitude decays straight through the
// smallest normal float32 (1.2e-38): tens of thousands of field values
// sit in the subnormal range for hundreds of steps, and every multiply
// or add that touches one takes a microcode assist — the time loop ran
// 3-8x slower there than on all-zero or all-normal fields. Production
// SPECFEM3D_GLOBE guards against this with VERYSMALLVAL = 1e-24 and
// flush-to-zero compiler flags; Go has neither, so the integrator
// flushes by hand: the loop that last writes a state array in a step
// passes the value through ftz. That is the displacement and the
// potential in the predictor, and the acceleration in the solid and
// fluid tail passes and the ocean load — so every corrector (the
// tails', the ocean loop's for the surface points) adds zero or a value
// of at least dt/2 * 2^-80 to the
// velocity, which therefore stays on a grid of normal numbers. The
// sampled source-time function is flushed too. The attenuation memory variables need no
// flush of their own (they are driven by the strain of a flushed
// displacement); the
// end-of-run census (rankState.stateCensus) counts them with the rest,
// and counts final accelerations below the threshold, on the pages a
// tail has marked live. Every path applies ftz at the same point of the
// same arithmetic, so the bit-identity contracts between paths hold.
// The force sweeps' skip of all-zero element visits (forceSweep)
// and the point passes' skip of dead pages (pageMarks) rely on ftz
// returning +0, never a signed zero: a value the flush zeroes leaves no
// bit for a tail's page test to find.

// flushExp is the biased-exponent field of 2^-80 (8.3e-25, the
// magnitude of SPECFEM's VERYSMALLVAL). The threshold sits far above
// the subnormal range on purpose: the kernels scale a field value by
// metric terms and 1/rho before the next store, and from 2^-100 the
// fluid's (1/rho) grad(chi) intermediates still came out subnormal.
const flushExp = (127 - 80) << 23

// ftz returns x, or zero when |x| < 2^-80. Infinities and NaNs pass
// through (their exponent field is the largest).
func ftz(x float32) float32 {
	if math.Float32bits(x)&0x7f800000 < flushExp {
		return 0
	}
	return x
}

// census scans a for the state census: the largest |a[i]| as float32
// bits (the bit patterns of non-negative floats order like the values,
// and a NaN sorts above +Inf, so it poisons the maximum) and the number
// of subnormal values — exponent field zero, mantissa not.
func census(a []float32) (maxAbsBits uint32, subnormals int64) {
	return scanBelow(a, 0x00800000)
}

// unflushed counts the values of a that ftz would have zeroed: non-zero
// magnitudes below 2^-80, whose bits are below flushExp. A final
// acceleration holds one only if its write site skipped the flush.
func unflushed(a []float32) int64 {
	_, n := scanBelow(a, flushExp)
	return n
}

// scanBelow returns the largest |a[i]| as float32 bits and the number of
// non-zero magnitudes whose bits are below lim.
func scanBelow(a []float32, lim uint32) (maxAbsBits uint32, n int64) {
	if k := len(a) &^ 7; k > 0 && simd.Vector() {
		var lanes [16]uint32
		censusAVX2(&a[:k:k][0], k, lim, &lanes)
		for _, m := range lanes[:8] {
			maxAbsBits = max(maxAbsBits, m)
		}
		for _, c := range lanes[8:] {
			n += int64(c)
		}
		a = a[k:]
	}
	for _, v := range a {
		b := math.Float32bits(v) &^ (1 << 31)
		maxAbsBits = max(maxAbsBits, b)
		// 1..lim-1 are counted; zero wraps to the top.
		if b-1 < lim-1 {
			n++
		}
	}
	return maxAbsBits, n
}
