package solver

//go:noescape
func stressStageAVX2(a *stressArgs)

//go:noescape
func fluidStageAVX2(a *fluidArgs)
