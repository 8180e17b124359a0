package solver

import (
	"math"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/perf"
	"specglobe/internal/simd"
)

// forceSweep runs force beat b: it accumulates the internal forces of
// one half of its region — -K u of a solid region into the
// accelerations, -K chi of the outer core into chiDdot. These are the
// two computational routines the paper identifies as consuming >70% of
// the runtime: per element, small 5x5 matrix products along the
// cutplanes of the 125-point block (section 4.3), followed by a
// pointwise stage (stress, or the weighted potential gradient) and the
// weighted-transpose accumulation.
//
// The sweep walks the step plan's colour classes of the half (the outer or
// inner elements of the overlap schedule), as built by
// mesh.Coloring.Classes. Colors run one after another with a barrier in
// between; within a color no two elements share a global point, so the
// chunks dispatched to the worker pool write disjoint acceleration
// entries and the sweep is bit-identical at every worker count. Each
// element is visited exactly once per step — the attenuation memory
// variables advance when their element is processed.
//
// Batched runs sweep all ns wavefields per element visit: the
// element-static loads (Jacobians, materials, Ibool, the derivative
// matrix) are touched once and reused across the ensemble, so the
// analytic byte model charges the static share once per element and
// only the dynamic share per field — raising arithmetic intensity ~ns×
// on the element-static traffic.
//
// A visit that gathers an all-±0 field (and has never driven its
// element's memory variables) ends there and is charged its gather:
// its contributions are ±0, and an accumulator is never −0 — the
// predictor stores +0, ftz returns +0, and under round-to-nearest a sum
// is −0 only if an operand is — so they would leave every bit as it is.
// A region none of whose fields has a live page is not dispatched at
// all and costs nothing: every visit would gather +0, and no element can
// have woken there (a non-zero field value lies on a live page).
func (rs *rankState) forceSweep(b *beat) perf.Work {
	classes := rs.sweeps[b.region].outer
	if b.kind == beatInner {
		classes = rs.sweeps[b.region].inner
	}
	numE := 0
	for _, class := range classes {
		numE += len(class)
	}
	if rs.quiet(b.region) {
		return perf.Work{SkippedVisits: int64(numE * rs.ns)}
	}
	var sk perf.SkipTally
	for _, class := range classes {
		rs.pool.sweepElems(rs.scr, class, &rs.forceBusy, func(ks *kernelScratch, elems []int32) {
			sk.Add(rs.forcesChunk(b.region, ks, elems))
		})
	}
	return sk.Charge(rs.bc, numE, rs.ns, b.flops, b.static, b.bytes, b.dead)
}

// pad abbreviates the padded block length in the component-block
// offsets below.
const pad = simd.PadLen

// compBlocks holds the x, y and z component blocks of one direction of
// an element's reference gradients or fluxes back to back: component c
// occupies [c*pad, c*pad+125).
type compBlocks = [3 * pad]float32

// xBlock views the x-component block of b, where the scalar fluid
// kernel works.
func xBlock(b *compBlocks) *[pad]float32 {
	return (*[pad]float32)(b[:])
}

// elemBlock views element e's 125 values of a per-element-point array
// (base = e*NGLL3) as a fixed-size block: one bounds check per element
// instead of one per point.
func elemBlock(a []float32, base int) *[mesh.NGLL3]float32 {
	return (*[mesh.NGLL3]float32)(a[base:])
}

// stressStage is the pointwise stage of one element visit of one
// wavefield, shared by every kernel variant: physical gradients from
// the reference gradients t1/t2/t3, strain, stress, and the
// Jacobian-weighted flux blocks s1/s2/s3 for the transpose stage. With
// attenuation (att non-nil) the deviatoric stress is corrected by the
// memory variables, which then advance one step of their recursion in
// place. The multiply-add sequence is fixed: every variant, worker
// count and ensemble width produces the same bits — and so do the two
// bodies, the 8-lane assembly on hosts with AVX2 and stressStageGo
// everywhere else. Lanes 125..127 of the s blocks are scratch.
func stressStage(reg *mesh.Region, e int, att *attState, t1, t2, t3, s1, s2, s3 *compBlocks) {
	if simd.Vector() {
		stressStageVec(reg, e, att, t1, t2, t3, s1, s2, s3)
		return
	}
	stressStageGo(reg, e, att, t1, t2, t3, s1, s2, s3)
}

// stressStageGo is the Go body of stressStage. The element's
// [mech][comp][point] slab of att.r is 18 rows of 125 floats; walking
// the points in ascending order consumes a cache line of each row whole
// before moving to the next.
func stressStageGo(reg *mesh.Region, e int, att *attState, t1, t2, t3, s1, s2, s3 *compBlocks) {
	base := e * mesh.NGLL3
	xixB, xiyB, xizB := elemBlock(reg.Xix, base), elemBlock(reg.Xiy, base), elemBlock(reg.Xiz, base)
	etxB, etyB, etzB := elemBlock(reg.Etax, base), elemBlock(reg.Etay, base), elemBlock(reg.Etaz, base)
	gmxB, gmyB, gmzB := elemBlock(reg.Gamx, base), elemBlock(reg.Gamy, base), elemBlock(reg.Gamz, base)
	jacB, muB, kapB := elemBlock(reg.Jac, base), elemBlock(reg.Mu, base), elemBlock(reg.Kappa, base)

	var muFac float32 = 1
	var alpha, beta, slab []float32
	if att != nil {
		muFac = att.muFac[e]
		alpha = att.alpha[e*att.nsls : (e+1)*att.nsls]
		beta = att.beta[e*att.nsls : (e+1)*att.nsls]
		slab = att.r[base*att.nsls*6 : (base+mesh.NGLL3)*att.nsls*6]
	}

	for p := 0; p < mesh.NGLL3; p++ {
		xix, xiy, xiz := xixB[p], xiyB[p], xizB[p]
		etx, ety, etz := etxB[p], etyB[p], etzB[p]
		gmx, gmy, gmz := gmxB[p], gmyB[p], gmzB[p]

		duxdx := xix*t1[p] + etx*t2[p] + gmx*t3[p]
		duxdy := xiy*t1[p] + ety*t2[p] + gmy*t3[p]
		duxdz := xiz*t1[p] + etz*t2[p] + gmz*t3[p]
		duydx := xix*t1[pad+p] + etx*t2[pad+p] + gmx*t3[pad+p]
		duydy := xiy*t1[pad+p] + ety*t2[pad+p] + gmy*t3[pad+p]
		duydz := xiz*t1[pad+p] + etz*t2[pad+p] + gmz*t3[pad+p]
		duzdx := xix*t1[2*pad+p] + etx*t2[2*pad+p] + gmx*t3[2*pad+p]
		duzdy := xiy*t1[2*pad+p] + ety*t2[2*pad+p] + gmy*t3[2*pad+p]
		duzdz := xiz*t1[2*pad+p] + etz*t2[2*pad+p] + gmz*t3[2*pad+p]

		exy := 0.5 * (duxdy + duydx)
		exz := 0.5 * (duxdz + duzdx)
		eyz := 0.5 * (duydz + duzdy)
		tr := duxdx + duydy + duzdz

		mu := muB[p] * muFac
		kap := kapB[p]
		lam := kap - (2.0/3.0)*mu

		sxx := lam*tr + 2*mu*duxdx
		syy := lam*tr + 2*mu*duydy
		szz := lam*tr + 2*mu*duzdz
		sxy := 2 * mu * exy
		sxz := 2 * mu * exz
		syz := 2 * mu * eyz

		if att != nil {
			// Subtract the memory-variable stresses, then advance
			// the recursions toward the current deviatoric strain.
			third := tr * (1.0 / 3.0)
			dxx := duxdx - third
			dyy := duydy - third
			dzz := duzdz - third
			ir := p // point p of the next mechanism's first row
			for m, al := range alpha {
				be := beta[m] * mu
				// Point p of the mechanism's six rows, 125 floats apart.
				rm := slab[ir : ir+5*mesh.NGLL3+1]
				ir += 6 * mesh.NGLL3
				sxx -= rm[0]
				syy -= rm[mesh.NGLL3]
				szz -= rm[2*mesh.NGLL3]
				sxy -= rm[3*mesh.NGLL3]
				sxz -= rm[4*mesh.NGLL3]
				syz -= rm[5*mesh.NGLL3]
				rm[0] = al*rm[0] + be*2*dxx
				rm[mesh.NGLL3] = al*rm[mesh.NGLL3] + be*2*dyy
				rm[2*mesh.NGLL3] = al*rm[2*mesh.NGLL3] + be*2*dzz
				rm[3*mesh.NGLL3] = al*rm[3*mesh.NGLL3] + be*2*exy
				rm[4*mesh.NGLL3] = al*rm[4*mesh.NGLL3] + be*2*exz
				rm[5*mesh.NGLL3] = al*rm[5*mesh.NGLL3] + be*2*eyz
			}
		}

		jac := jacB[p]
		s1[p] = jac * (sxx*xix + sxy*xiy + sxz*xiz)
		s1[pad+p] = jac * (sxy*xix + syy*xiy + syz*xiz)
		s1[2*pad+p] = jac * (sxz*xix + syz*xiy + szz*xiz)
		s2[p] = jac * (sxx*etx + sxy*ety + sxz*etz)
		s2[pad+p] = jac * (sxy*etx + syy*ety + syz*etz)
		s2[2*pad+p] = jac * (sxz*etx + syz*ety + szz*etz)
		s3[p] = jac * (sxx*gmx + sxy*gmy + sxz*gmz)
		s3[pad+p] = jac * (sxy*gmx + syy*gmy + syz*gmz)
		s3[2*pad+p] = jac * (sxz*gmx + syz*gmy + szz*gmz)
	}
}

// forcesChunk processes one conflict-free chunk of a force sweep of
// region kind on a worker (or inline) scratch. The wavefield loop nests
// *inside* the element loop so each element's static data stays
// cache-hot across the whole ensemble; per-field arithmetic is the exact
// sequence of the single-field path, so every batched field is
// bit-identical to its own solo run. It returns the visits it skipped
// (see forceSweep).
func (rs *rankState) forcesChunk(kind int, ks *kernelScratch, elems []int32) perf.Skips {
	sk := perf.Skips{}
	for _, e32 := range elems {
		e := int(e32)
		ran := false
		for i := 0; i < rs.ns; i++ {
			var r bool
			if kind == int(earthmodel.RegionOuterCore) {
				r = rs.fluid[i].visit(rs.kern, e, ks)
			} else {
				r = rs.solid[kind][i].visit(rs.kern, e, ks)
			}
			if !r {
				sk.Visits++
			}
			ran = ran || r
		}
		if !ran {
			sk.Elems++
		}
	}
	return sk
}

// visit is field f's visit of element e. It ends after the gather when
// the gathered displacement is all ±0 (or<<1 == 0), unless the
// element's memory variables have been driven; otherwise it wakes the
// element and runs the kernel. It reports whether it ran.
func (f *solidField) visit(k *kernels, e int, ks *kernelScratch) bool {
	woke := f.att != nil && f.att.woke[e]
	ib := f.reg.Ibool[e*mesh.NGLL3 : (e+1)*mesh.NGLL3]
	var or uint32
	for p, g := range ib {
		u := &f.d[g]
		ks.u[p], ks.u[pad+p], ks.u[2*pad+p] = u[0], u[1], u[2]
		or |= math.Float32bits(u[0]) | math.Float32bits(u[1]) | math.Float32bits(u[2])
	}
	if or<<1 == 0 && !woke {
		return false
	}
	if f.att != nil {
		f.att.woke[e] = true
	}
	k.solidVisit(f.reg, e, ib, f, ks)
	return true
}

// solidVisit finishes field f's visit of element e (points ib) from the
// displacement gathered into ks.u: gradients, stage, transpose, scatter.
func (k *kernels) solidVisit(reg *mesh.Region, e int, ib []int32, f *solidField, ks *kernelScratch) {
	// Reference-space gradients of each displacement component.
	for lo := 0; lo < 3*pad; lo += pad {
		k.grad(ks.u[lo:lo+pad], ks.t1[lo:lo+pad], ks.t2[lo:lo+pad], ks.t3[lo:lo+pad])
	}

	stressStage(reg, e, f.att, &ks.t1, &ks.t2, &ks.t3, &ks.s1, &ks.s2, &ks.s3)

	// Weighted-transpose accumulation, reusing the t blocks.
	for lo := 0; lo < 3*pad; lo += pad {
		k.gradT1(ks.s1[lo:lo+pad], ks.t1[lo:lo+pad])
		k.gradT2(ks.s2[lo:lo+pad], ks.t2[lo:lo+pad])
		k.gradT3(ks.s3[lo:lo+pad], ks.t3[lo:lo+pad])
	}

	for p, g := range ib {
		a := &f.a[g]
		a[0] -= k.fac1[p]*ks.t1[p] + k.fac2[p]*ks.t2[p] + k.fac3[p]*ks.t3[p]
		a[1] -= k.fac1[p]*ks.t1[pad+p] + k.fac2[p]*ks.t2[pad+p] + k.fac3[p]*ks.t3[pad+p]
		a[2] -= k.fac1[p]*ks.t1[2*pad+p] + k.fac2[p]*ks.t2[2*pad+p] + k.fac3[p]*ks.t3[2*pad+p]
	}
}

// addFluidTractionToSolid applies the fluid pressure traction on the
// solid side of the CMB and ICB: F += (w . n_s) chi_ddot dA with
// n_s = -n_f, i.e. F -= Weight * n_f * chi_ddot (displacement-based
// non-iterative coupling: the fluid acceleration potential is final
// when this runs). It returns the face points it touched, summed over
// the fields.
func (rs *rankState) addFluidTractionToSolid() (n int64) {
	if rs.fluid == nil {
		return 0
	}
	for _, faces := range [][]mesh.CoupleFace{rs.local.CMB, rs.local.ICB} {
		for fi := range faces {
			cf := &faces[fi]
			fs := rs.solid[cf.SolidKind]
			for s, f := range fs {
				chi := rs.fluid[s].chiDdot
				for q := 0; q < mesh.NGLL2; q++ {
					chidd := chi[cf.FluidPt[q]]
					w := cf.Weight[q]
					a := &f.a[cf.SolidPt[q]]
					a[0] -= w * cf.Nx[q] * chidd
					a[1] -= w * cf.Ny[q] * chidd
					a[2] -= w * cf.Nz[q] * chidd
				}
			}
		}
		n += int64(len(faces)*mesh.NGLL2) * int64(rs.ns)
	}
	return n
}

// gradT1/2/3 apply the weighted transpose matrix along one direction.
func (k *kernels) gradT1(u, out []float32) {
	if k.variant == KernelScalar {
		simd.ApplyD1Scalar(k.hpwT, u, out)
		return
	}
	simd.ApplyD1Vec4(k.hpwT, &k.colsT, u, out)
}

func (k *kernels) gradT2(u, out []float32) {
	if k.variant == KernelScalar {
		simd.ApplyD2Scalar(k.hpwT, u, out)
		return
	}
	simd.ApplyD2Vec4(k.hpwT, u, out)
}

func (k *kernels) gradT3(u, out []float32) {
	if k.variant == KernelScalar {
		simd.ApplyD3Scalar(k.hpwT, u, out)
		return
	}
	simd.ApplyD3Vec4(k.hpwT, u, out)
}
