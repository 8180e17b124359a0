package solver

import "specglobe/internal/mesh"

// The 8-lane bodies of the two pointwise stages (stage_amd64.s) and of
// the point passes (pass_amd64.s; DESIGN.md "Vector kernels"). They run
// when simd.Vector reports AVX2 — one switch, so the contractions, the
// stages and the passes always change together; stressStageGo,
// fluidStageGo and the Go loops of the passes are the fallback on every
// other host and the oracle the assembly is tested against, bit for
// bit.

// solidTailArgs is the argument block of solidTailAVX2: n points (a
// multiple of 8) of the xyz arrays a, v, d and rhat and of the per-point
// arrays m, ocean, gOverR and dgdr. d, rhat, gOverR and dgdr are nil
// without gravity.
type solidTailArgs struct {
	a, v, m               *float32
	ocean                 *bool
	d, rhat, gOverR, dgdr *float32
	n                     int
	half, twoOmega        float32
}

// stressArgs is the argument block of stressStageAVX2. The twelve
// element-static pointers address exactly 125 floats each, the six
// component-block pointers 3*pad floats each, and r — nil without
// attenuation — the element's nsls*6 rows of 125 memory variables.
// The constants travel with the call so the assembly multiplies by the
// very float32 values the Go compiler folds into stressStageGo.
type stressArgs struct {
	xix, xiy, xiz, etx, ety, etz, gmx, gmy, gmz *float32
	jac, mu, kap                                *float32
	t1, t2, t3, s1, s2, s3                      *compBlocks
	r, alpha, beta                              *float32
	nsls                                        int
	muFac, half, two, twoThirds, third          float32
}

// fluidArgs is the argument block of fluidStageAVX2: eleven
// element-static pointers of 125 floats, six padded blocks.
type fluidArgs struct {
	xix, xiy, xiz, etx, ety, etz, gmx, gmy, gmz *float32
	jac, rho                                    *float32
	t1, t2, t3, s1, s2, s3                      *[pad]float32
}

// stressStageVec hands element e to the assembly body. Every pointer
// into a region-long array is taken from a sub-slice capped at the
// element's own 125 values (or its own memory-variable slab), so the
// bounds are checked here, in Go, before anything runs that the race
// detector and checkptr cannot see into.
func stressStageVec(reg *mesh.Region, e int, att *attState, t1, t2, t3, s1, s2, s3 *compBlocks) {
	lo, hi := e*mesh.NGLL3, (e+1)*mesh.NGLL3
	var (
		muFac          float32 = 1
		r, alpha, beta *float32
		nsls           int
	)
	if att != nil && att.nsls > 0 {
		nsls = att.nsls
		muFac = att.muFac[e]
		r = &att.r[lo*nsls*6 : hi*nsls*6 : hi*nsls*6][0]
		alpha = &att.alpha[e*nsls : (e+1)*nsls : (e+1)*nsls][0]
		beta = &att.beta[e*nsls : (e+1)*nsls : (e+1)*nsls][0]
	}
	stressStageAVX2(&stressArgs{
		xix: &reg.Xix[lo:hi:hi][0], xiy: &reg.Xiy[lo:hi:hi][0], xiz: &reg.Xiz[lo:hi:hi][0],
		etx: &reg.Etax[lo:hi:hi][0], ety: &reg.Etay[lo:hi:hi][0], etz: &reg.Etaz[lo:hi:hi][0],
		gmx: &reg.Gamx[lo:hi:hi][0], gmy: &reg.Gamy[lo:hi:hi][0], gmz: &reg.Gamz[lo:hi:hi][0],
		jac: &reg.Jac[lo:hi:hi][0], mu: &reg.Mu[lo:hi:hi][0], kap: &reg.Kappa[lo:hi:hi][0],
		t1: t1, t2: t2, t3: t3, s1: s1, s2: s2, s3: s3,
		r: r, alpha: alpha, beta: beta, nsls: nsls,
		muFac: muFac, half: 0.5, two: 2, twoThirds: 2.0 / 3.0, third: 1.0 / 3.0,
	})
}

// fluidStageVec is stressStageVec for the fluid stage.
func fluidStageVec(reg *mesh.Region, e int, t1, t2, t3, s1, s2, s3 *[pad]float32) {
	lo, hi := e*mesh.NGLL3, (e+1)*mesh.NGLL3
	fluidStageAVX2(&fluidArgs{
		xix: &reg.Xix[lo:hi:hi][0], xiy: &reg.Xiy[lo:hi:hi][0], xiz: &reg.Xiz[lo:hi:hi][0],
		etx: &reg.Etax[lo:hi:hi][0], ety: &reg.Etay[lo:hi:hi][0], etz: &reg.Etaz[lo:hi:hi][0],
		gmx: &reg.Gamx[lo:hi:hi][0], gmy: &reg.Gamy[lo:hi:hi][0], gmz: &reg.Gamz[lo:hi:hi][0],
		jac: &reg.Jac[lo:hi:hi][0], rho: &reg.Rho[lo:hi:hi][0],
		t1: t1, t2: t2, t3: t3, s1: s1, s2: s2, s3: s3,
	})
}
