package solver

//go:noescape
func stressStageAVX2(a *stressArgs)

//go:noescape
func fluidStageAVX2(a *fluidArgs)

//go:noescape
func predictAVX2(d, v, a *float32, n int, dt, half, halfSq float32)

//go:noescape
func fluidTailAVX2(dd, dot, m *float32, n int, half float32)

//go:noescape
func solidTailAVX2(p *solidTailArgs)

//go:noescape
func zeroBitsAVX2(a *float32, n int) bool

//go:noescape
func censusAVX2(a *float32, n int, lim uint32, out *[16]uint32)
