//go:build !amd64

package solver

// simd.Vector is false off amd64, so these are never reached.

func stressStageAVX2(a *stressArgs) { panic("solver: no vector body") }
func fluidStageAVX2(a *fluidArgs)   { panic("solver: no vector body") }
