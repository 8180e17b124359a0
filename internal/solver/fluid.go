package solver

import (
	"math"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/perf"
	"specglobe/internal/simd"
)

// The fluid outer core uses the scalar potential formulation of
// Komatitsch & Tromp (2002): displacement u = (1/rho) grad(chi) and
// pressure p = -chi_ddot, governed by the weak form of
//
//	(1/kappa) chi_ddot = div( (1/rho) grad(chi) )
//
// with the boundary term at the CMB/ICB supplying the normal component
// of the *solid displacement* — the displacement-based non-iterative
// coupling of Chaljub & Valette (2004) adopted in the paper.

// computeFluidForces accumulates -K chi (the discrete weighted Laplacian
// with 1/rho coefficient) into chiDdot. This is the second of the two
// dominant routines of section 4.3: same cutplane structure, one scalar
// field instead of three components.
//
// classes is the color-partitioned element sub-list (see
// computeSolidForces): colors run serially, chunks within a color run
// on the worker pool and write disjoint chiDdot entries. Visits are
// skipped on dead pages and zero gathers, and a quiet region is not
// dispatched, as in computeSolidForces.
func (rs *rankState) computeFluidForces(classes [][]int32) {
	if rs.fluid == nil {
		return
	}
	var sk perf.SkipTally
	numE := 0
	for _, class := range classes {
		numE += len(class)
	}
	if rs.quiet(int(earthmodel.RegionOuterCore)) {
		sk.Add(perf.Skips{Visits: numE * rs.ns, Elems: numE, Pages: numE * rs.ns, PageElems: numE})
	} else {
		for _, class := range classes {
			rs.pool.sweepElems(rs.scr, class, &rs.forceBusy, func(ks *kernelScratch, elems []int32) {
				sk.Add(rs.fluidForcesChunk(ks, elems))
			})
		}
	}
	skipped, pages, f, b := sk.Charge(rs.bc, numE, rs.ns, rs.fc.FluidElement,
		rs.bc.FluidElementStatic, rs.bc.FluidElementDynamic, rs.bc.FluidGather)
	rs.prof.AddFlops(perf.PhaseForceFluid, f)
	rs.prof.AddBytes(perf.PhaseForceFluid, b)
	rs.prof.AddSkippedVisits(perf.PhaseForceFluid, skipped)
	rs.prof.AddPageSkippedVisits(perf.PhaseForceFluid, pages)
}

// fluidStage is the pointwise stage of one fluid element visit of one
// wavefield, shared by every kernel variant: the physical gradient of
// the potential from its reference gradients t1/t2/t3, scaled by
// Jacobian over density and rotated back into the flux blocks s1/s2/s3
// for the transpose stage. Like stressStage it has an 8-lane assembly
// body on hosts with AVX2 and a Go body that produces the same bits;
// lanes 125..127 of the s blocks are scratch.
func fluidStage(reg *mesh.Region, e int, t1, t2, t3, s1, s2, s3 *[pad]float32) {
	if simd.Vector() {
		fluidStageVec(reg, e, t1, t2, t3, s1, s2, s3)
		return
	}
	fluidStageGo(reg, e, t1, t2, t3, s1, s2, s3)
}

// fluidStageGo is the Go body of fluidStage.
func fluidStageGo(reg *mesh.Region, e int, t1, t2, t3, s1, s2, s3 *[pad]float32) {
	base := e * mesh.NGLL3
	for p := 0; p < mesh.NGLL3; p++ {
		ip := base + p
		xix, xiy, xiz := reg.Xix[ip], reg.Xiy[ip], reg.Xiz[ip]
		etx, ety, etz := reg.Etax[ip], reg.Etay[ip], reg.Etaz[ip]
		gmx, gmy, gmz := reg.Gamx[ip], reg.Gamy[ip], reg.Gamz[ip]

		gx := xix*t1[p] + etx*t2[p] + gmx*t3[p]
		gy := xiy*t1[p] + ety*t2[p] + gmy*t3[p]
		gz := xiz*t1[p] + etz*t2[p] + gmz*t3[p]

		fac := reg.Jac[ip] / reg.Rho[ip]
		s1[p] = fac * (gx*xix + gy*xiy + gz*xiz)
		s2[p] = fac * (gx*etx + gy*ety + gz*etz)
		s3[p] = fac * (gx*gmx + gy*gmy + gz*gmz)
	}
}

// fluidForcesChunk processes one conflict-free chunk of fluid elements,
// reusing the x-component scratch blocks for the scalar potential. The
// wavefield loop nests inside the element loop; a visit on dead pages
// stops before the gather, and one whose gathered potential is all ±0
// stops there (see solidForcesChunk).
func (rs *rankState) fluidForcesChunk(ks *kernelScratch, elems []int32) perf.Skips {
	fls := rs.fluid
	sk := perf.Skips{}
	reg := fls[0].reg
	chi := xBlock(&ks.u)

	for _, e32 := range elems {
		e := int(e32)
		base := e * mesh.NGLL3
		ib := reg.Ibool[base : base+mesh.NGLL3]
		ran, gathered := false, false
		for _, fl := range fls {
			if fl.pages.deadElem(reg, e) {
				sk.Visits++
				sk.Pages++
				continue
			}
			gathered = true
			var or uint32
			for p, g := range ib {
				chi[p] = fl.chi[g]
				or |= math.Float32bits(chi[p])
			}
			if or<<1 == 0 { // all ±0
				sk.Visits++
				continue
			}
			ran = true
			rs.kern.fluidVisit(reg, e, ib, fl, ks)
		}
		if !ran {
			sk.Elems++
			if !gathered {
				sk.PageElems++
			}
		}
	}
	return sk
}

// fluidVisit finishes field fl's visit of element e (points ib) from the
// potential gathered into ks.u's x block (see solidVisit).
func (k *kernels) fluidVisit(reg *mesh.Region, e int, ib []int32, fl *fluidField, ks *kernelScratch) {
	chi, t1, t2, t3 := xBlock(&ks.u), xBlock(&ks.t1), xBlock(&ks.t2), xBlock(&ks.t3)
	s1, s2, s3 := xBlock(&ks.s1), xBlock(&ks.s2), xBlock(&ks.s3)
	k.grad(chi[:], t1[:], t2[:], t3[:])
	fluidStage(reg, e, t1, t2, t3, s1, s2, s3)
	k.gradT1(s1[:], t1[:])
	k.gradT2(s2[:], t2[:])
	k.gradT3(s3[:], t3[:])
	for p, g := range ib {
		fl.chiDdot[g] -= k.fac1[p]*t1[p] + k.fac2[p]*t2[p] + k.fac3[p]*t3[p]
	}
}

// addSolidDisplacementToFluid applies the fluid-side coupling term:
// chiDdot accumulates + Weight * (u_solid . n_f) at the boundary points,
// using the freshly predicted solid displacement.
func (rs *rankState) addSolidDisplacementToFluid(faces []mesh.CoupleFace) {
	if rs.fluid == nil {
		return
	}
	for fi := range faces {
		cf := &faces[fi]
		fs := rs.solid[cf.SolidKind]
		for s, fl := range rs.fluid {
			f := fs[s]
			for q := 0; q < mesh.NGLL2; q++ {
				u := &f.d[cf.SolidPt[q]]
				un := u[0]*cf.Nx[q] + u[1]*cf.Ny[q] + u[2]*cf.Nz[q]
				fl.chiDdot[cf.FluidPt[q]] += cf.Weight[q] * un
			}
		}
	}
	n := int64(len(faces)*mesh.NGLL2) * int64(rs.ns)
	rs.prof.AddFlops(perf.PhaseForceFluid, rs.fc.CouplePoint*n)
	rs.prof.AddBytes(perf.PhaseForceFluid, rs.bc.CouplePoint*n)
}
