//go:build !amd64

package solver

// simd.Vector is false off amd64, so these are never reached.

func stressStageAVX2(a *stressArgs) { panic("solver: no vector body") }
func fluidStageAVX2(a *fluidArgs)   { panic("solver: no vector body") }

func predictAVX2(d, v, a *float32, n int, dt, half, halfSq float32) {
	panic("solver: no vector body")
}
func fluidTailAVX2(dd, dot, m *float32, n int, half float32) { panic("solver: no vector body") }
func solidTailAVX2(p *solidTailArgs)                         { panic("solver: no vector body") }
func zeroBitsAVX2(a *float32, n int) bool                    { panic("solver: no vector body") }
func censusAVX2(a *float32, n int, lim uint32, out *[16]uint32) {
	panic("solver: no vector body")
}
