package meshfem

import (
	"fmt"
	"math"

	"specglobe/internal/cubedsphere"
	"specglobe/internal/gll"
	"specglobe/internal/mesh"
)

// Element geometry evaluation. Shell elements use the analytic gnomonic
// mapping; central-cube elements use the spherified-cube blend with
// numerical Jacobians. All point positions flow through the same
// endpoint-exact interpolation so that coincident points of adjacent
// elements (also across chunks and across the cube surface) are
// bit-identical. Within a rank the numbering does not rely on it — a
// point is numbered by its lattice slot (lattice.go) — but the
// cross-rank halo match pairs points by their exact coordinate bits.

// gllS holds the GLL reference positions mapped to [0, 1] lerp factors.
var gllS = func() [gll.NGLL]float64 {
	var s [gll.NGLL]float64
	for i, x := range gll.Points(gll.Degree) {
		s[i] = (x + 1) / 2
	}
	// Pin the endpoints so lerp returns interval bounds exactly.
	s[0], s[gll.NGLL-1] = 0, 1
	return s
}()

// gllW holds the GLL quadrature weights.
var gllW = func() [gll.NGLL]float64 {
	var w [gll.NGLL]float64
	copy(w[:], gll.Weights(gll.Degree, gll.Points(gll.Degree)))
	return w
}()

// symW0 and symW1 are the endpoint weights of the index-based symmetric
// interpolation symLerp. They are built so that symW0[i] == symW1[NGLL-1-i]
// bit-for-bit, which makes symLerp direction-agnostic: an element that
// traverses a shared edge from U to V and a neighbor that traverses it
// from V to U produce bit-identical GLL points (the two products are the
// same and float addition commutes). The lattice names an edge node by
// its unordered vertex pair for the same reason (dblNodes), and a
// doubling-template point on a rank boundary carries the exact bits the
// cross-rank halo match pairs it by.
var symW0, symW1 = func() (w0, w1 [gll.NGLL]float64) {
	for i := 0; i < gll.NGLL; i++ {
		w1[i] = gllS[i]
		w0[i] = gllS[gll.NGLL-1-i]
	}
	return w0, w1
}()

// symLerp interpolates between u and v at GLL index i with the
// symmetric weights. Equal endpoints return exactly that value (the
// weights sum to 1 only approximately), so constant-coordinate edges —
// e.g. the top of a doubling layer at fixed radius — stay bit-exact
// against the uniform layer above. symLerp(u, v, i) ==
// symLerp(v, u, NGLL-1-i) bit-for-bit, and the endpoints are exact:
// symLerp(u, v, 0) == u, symLerp(u, v, NGLL-1) == v. Within a rank the
// lattice numbers such a shared point once, whichever element computes
// it first; across ranks, the halo match still needs the bits to agree.
func symLerp(u, v float64, i int) float64 {
	if u == v {
		return u
	}
	return u*symW0[i] + v*symW1[i]
}

// elemViews are one element's NGLL3 values of the region arrays
// fillElement writes, as fixed-size views taken once per element: a
// node's stores then share one bounds check on its index (the arrays'
// length is the constant NGLL3) instead of carrying one per array.
type elemViews struct {
	ibool                                            *[mesh.NGLL3]int32
	xix, xiy, xiz, etx, ety, etz, gmx, gmy, gmz, jac *[mesh.NGLL3]float32
}

// viewElement returns the views of element e of r.
func viewElement(r *mesh.Region, e int) elemViews {
	base := e * mesh.NGLL3
	view := func(a []float32) *[mesh.NGLL3]float32 { return (*[mesh.NGLL3]float32)(a[base:]) }
	return elemViews{
		ibool: (*[mesh.NGLL3]int32)(r.Ibool[base:]),
		xix:   view(r.Xix), xiy: view(r.Xiy), xiz: view(r.Xiz),
		etx: view(r.Etax), ety: view(r.Etay), etz: view(r.Etaz),
		gmx: view(r.Gamx), gmy: view(r.Gamy), gmz: view(r.Gamz),
		jac: view(r.Jac),
	}
}

// storeMetric inverts the matrix whose columns are the Jacobian vectors
// and writes the rows of the inverse (the reference-coordinate
// gradients) into the element's metric views at node n, rounding
// residue snapped to +0 (snapResidue); it returns the determinant. The
// matrix is held in scalars, not an array, so the inversion, the snap
// and the casts stay in registers.
func storeMetric(v *elemViews, n int, cols *[3]cubedsphere.Vec3) (det float64) {
	m00, m01, m02 := cols[0][0], cols[1][0], cols[2][0]
	m10, m11, m12 := cols[0][1], cols[1][1], cols[2][1]
	m20, m21, m22 := cols[0][2], cols[1][2], cols[2][2]
	c00 := m11*m22 - m12*m21
	c01 := m12*m20 - m10*m22
	c02 := m10*m21 - m11*m20
	det = m00*c00 + m01*c01 + m02*c02
	inv := 1 / det
	xix, xiy, xiz := c00*inv, (m02*m21-m01*m22)*inv, (m01*m12-m02*m11)*inv
	etx, ety, etz := c01*inv, (m00*m22-m02*m20)*inv, (m02*m10-m00*m12)*inv
	gmx, gmy, gmz := c02*inv, (m01*m20-m00*m21)*inv, (m00*m11-m01*m10)*inv
	lim := ((xix*xix + xiy*xiy + xiz*xiz) + (etx*etx + ety*ety + etz*etz) + (gmx*gmx + gmy*gmy + gmz*gmz)) * 0x1p-80
	v.xix[n] = float32(snapResidue(xix, lim))
	v.xiy[n] = float32(snapResidue(xiy, lim))
	v.xiz[n] = float32(snapResidue(xiz, lim))
	v.etx[n] = float32(snapResidue(etx, lim))
	v.ety[n] = float32(snapResidue(ety, lim))
	v.etz[n] = float32(snapResidue(etz, lim))
	v.gmx[n] = float32(snapResidue(gmx, lim))
	v.gmy[n] = float32(snapResidue(gmy, lim))
	v.gmz[n] = float32(snapResidue(gmz, lim))
	return det
}

// snapResidue returns +0 when v*v is below lim, 2^-80 times the sum of
// the squares of its point's nine inverse-Jacobian entries, and v
// otherwise: it zeroes an entry (and a -0) more than 2^40 below the
// entries' root sum square, which lies between 1 and 3 times the
// largest. Such an entry is float64 rounding residue of a term that is
// zero in exact arithmetic (a reference gradient's component along an
// axis it is orthogonal to): on every mesh shape the non-zero entries
// lie either below 2^-52 or above 2^-13 of their point's largest, so
// the threshold sits in that gap and moves no geometry
// (TestMetricHasNoResidue). Left in, a residue entry of 1e-25 times a
// small gradient is a float32 subnormal in the solver's stress and
// fluid stages, which costs a microcode assist per product.
//
// The compare is a branch: the residue pattern repeats along an
// element's nodes, so it predicts well, while a bit mask would move
// every entry to an integer register and back, which measured twice the
// snap's cost in BenchmarkBuild.
func snapResidue(v, lim float64) float64 {
	if v*v < lim {
		return 0
	}
	return v
}

// elemNodes is one element's node table: the position and the Jacobian
// columns of its NGLL3 nodes, indexed i + NGLL*j + NGLL2*k. Each element
// family fills it through its own method, which computes whatever
// depends on fewer than three of the indices once per element instead
// of once per node; fillElement and assignMaterial then consume it,
// completing the mesh.Element it embeds, which the region folds.
//
// The hoists keep every operand and every operation order of the
// per-node formulas they replace: a factor is moved out of a loop only
// whole, as the value of the same expression on the same inputs, so
// each float64 — and with it every point position, every float32 the
// solver reads — is the one the per-node evaluation produced
// (TestMeshBits).
type elemNodes struct {
	mesh.Element
	cols [mesh.NGLL3][3]cubedsphere.Vec3
	// slot[n] is node n's lattice slot, filled by the element loop.
	slot [mesh.NGLL3]int
	// rad[k] is the material-evaluation radius of radial index k,
	// clamped inside the element so discontinuity-adjacent elements
	// sample their own side. It is set when radial is: the element's
	// third reference direction is purely radial (uniform shell
	// elements), so one model sample serves the NGLL2 nodes of a level.
	// Otherwise the material is sampled at each node's own radius.
	rad    [mesh.NGLL]float64
	radial bool
}

// shell fills the table for the shell element of column c between
// radii r0 and r1. Positions use the column's symmetric-interpolation
// directions, Jacobians its tangent derivatives at the plain lerp
// coordinates; the radial factors depend on ir only.
func (t *elemNodes) shell(c *column, r0, r1 float64) {
	for ir := 0; ir < mesh.NGLL; ir++ {
		rPos := symLerp(r0, r1, ir)
		r := lerp(r0, r1, gllS[ir])
		fa, fb, fr := r*c.da/2, r*c.db/2, (r1-r0)/2
		for q := 0; q < mesh.NGLL2; q++ {
			n := q + mesh.NGLL2*ir
			p, d := &t.Pos[n], &c.posDir[q]
			p[0], p[1], p[2] = rPos*d[0], rPos*d[1], rPos*d[2]
			cl, da, db, dr := &t.cols[n], &c.dda[q], &c.ddb[q], &c.d[q]
			cl[0][0], cl[0][1], cl[0][2] = fa*da[0], fa*da[1], fa*da[2]
			cl[1][0], cl[1][1], cl[1][2] = fb*db[0], fb*db[1], fb*db[2]
			cl[2][0], cl[2][1], cl[2][2] = fr*dr[0], fr*dr[1], fr*dr[2]
		}
		t.rad[ir] = lerp(r0, r1, clamp(gllS[ir], 1e-3, 1-1e-3))
	}
	t.radial = true
}

// cube fills the table for the central-cube cell spanning tangent
// ranges [a0,a1]x[b0,b1]x[c0,c1], for cube radius rcc. The Jacobian
// columns are central differences in the reference coordinates (the
// spherified-cube blend is only piecewise smooth, so numerical
// differentiation is the robust choice); the displaced and undisplaced
// cube coordinates depend on one index each.
func (t *elemNodes) cube(a0, a1, b0, b1, c0, c1, rcc float64) {
	const h = 1e-6
	// d(lerp factor)/d(reference coord) = 1/2.
	const scale = 1 / (2 * h * 2)
	lo, hi := [3]float64{a0, b0, c0}, [3]float64{a1, b1, c1}
	// at[c][i], plus[c][i], minus[c][i]: axis c's cube coordinate at
	// GLL index i and at lerp factors gllS[i] +- h.
	var sym, at, plus, minus [3][mesh.NGLL]float64
	for c := 0; c < 3; c++ {
		for i := 0; i < mesh.NGLL; i++ {
			sym[c][i] = symLerp(lo[c], hi[c], i)
			at[c][i] = lerp(lo[c], hi[c], gllS[i])
			plus[c][i] = lerp(lo[c], hi[c], gllS[i]+h)
			minus[c][i] = lerp(lo[c], hi[c], gllS[i]-h)
		}
	}
	for ic := 0; ic < mesh.NGLL; ic++ {
		for ib := 0; ib < mesh.NGLL; ib++ {
			for ia := 0; ia < mesh.NGLL; ia++ {
				n := ia + mesh.NGLL*ib + mesh.NGLL2*ic
				p, cl := &t.Pos[n], &t.cols[n]
				p[0], p[1], p[2] = cubedsphere.CubePoint(sym[0][ia], sym[1][ib], sym[2][ic], rcc)
				x, y, z := at[0][ia], at[1][ib], at[2][ic]
				px, py, pz := cubedsphere.CubePoint(plus[0][ia], y, z, rcc)
				mx, my, mz := cubedsphere.CubePoint(minus[0][ia], y, z, rcc)
				cl[0][0], cl[0][1], cl[0][2] = scale*(px-mx), scale*(py-my), scale*(pz-mz)
				px, py, pz = cubedsphere.CubePoint(x, plus[1][ib], z, rcc)
				mx, my, mz = cubedsphere.CubePoint(x, minus[1][ib], z, rcc)
				cl[1][0], cl[1][1], cl[1][2] = scale*(px-mx), scale*(py-my), scale*(pz-mz)
				px, py, pz = cubedsphere.CubePoint(x, y, plus[2][ic], rcc)
				mx, my, mz = cubedsphere.CubePoint(x, y, minus[2][ic], rcc)
				cl[2][0], cl[2][1], cl[2][2] = scale*(px-mx), scale*(py-my), scale*(pz-mz)
			}
		}
	}
	t.radial = false
}

// fillElement writes the geometry of element e of region r from its
// node table — positions, inverse mapping and |J| into the region, the
// mass weight JacW into the table — numbering its nodes' lattice slots
// in node order (first-sight numbering).
func fillElement(r *mesh.Region, lat *lattice, e int, t *elemNodes) error {
	v := viewElement(r, e)
	for n := 0; n < mesh.NGLL3; n++ {
		v.ibool[n] = lat.point(t.slot[n], t.Pos[n])
		det := storeMetric(&v, n, &t.cols[n])
		if det <= 0 {
			return fmt.Errorf("meshfem: region %v element %d node %d: non-positive Jacobian determinant %g", r.Kind, e, n, det)
		}
		v.jac[n] = float32(det)
		i, j, k := n%mesh.NGLL, n/mesh.NGLL%mesh.NGLL, n/mesh.NGLL2
		t.MassW[n] = float32(det * gllW[i] * gllW[j] * gllW[k])
	}
	return nil
}

// faceQuad evaluates the outward-radial surface quadrature of the face
// at radius r of a shell element of column c: unit normals (the radial
// direction) and area weights |dP/dxi^ x dP/deta^| * w_i w_j at the
// NGLL2 face points.
func faceQuad(c *column, r float64) (normal [mesh.NGLL2]cubedsphere.Vec3, weight [mesh.NGLL2]float64) {
	fa, fb := r*c.da/2, r*c.db/2
	for q := 0; q < mesh.NGLL2; q++ {
		cr := c.dda[q].Scale(fa).Cross(c.ddb[q].Scale(fb))
		area := cr.Norm()
		n := cr.Normalize()
		// Orient outward (away from the center).
		if n.Dot(c.d[q].Scale(r)) < 0 {
			n = n.Scale(-1)
		}
		normal[q] = n
		weight[q] = area * gllW[q%mesh.NGLL] * gllW[q/mesh.NGLL]
	}
	return normal, weight
}

// sphericalShellVolume is the analytic volume between two radii, used by
// mesher self-checks.
func sphericalShellVolume(r0, r1 float64) float64 {
	return 4.0 / 3.0 * math.Pi * (r1*r1*r1 - r0*r0*r0)
}

// --- Doubling-brick geometry ----------------------------------------------
//
// A doubling layer halves the lateral element count in one angular
// direction: its top grid is fine (n cells per chunk side), its bottom
// grid coarse (n/2 cells). The transition tiles the (tangent, radius)
// plane with a repeating 6-quad template spanning 4 fine cells (= 2
// coarse cells) laterally — the minimal repeat that admits an all-quad
// conforming mesh (a 2-fine-to-1-coarse strip has an odd boundary edge
// count, so no such mesh exists; 4-to-2 has an even one). The template
// (fine cell units laterally, layer thickness 1 radially, A = (1, 1/2),
// B = (2, 3/4), C = (3, 1/2) the interior nodes):
//
//	r1  +----+----+----+----+   quads: 1 (0,0) A (1,1) (0,1)
//	    | 1  | 3  | 5  | 6  |          2 (0,0) (2,0) B A
//	    |   A____B____C    |           3 A B (2,1) (1,1)
//	    |  /    2 | 4   \  |           4 (2,0) (4,0) C B
//	r0  +---------+--------+           5 B C (3,1) (2,1)
//	        coarse   coarse            6 C (4,0) (4,1) (3,1)
//
// All six quads are convex (verified by the positive-Jacobian check in
// fillElement at build time), every interior edge is shared by exactly
// two quads, the four top edges are the fine grid edges and the two
// bottom edges the coarse ones — the mesh is conforming by construction,
// and symLerp arithmetic makes the shared points bit-identical.
// Doubling both angular directions stacks two such layers: the upper
// halves xi (template extruded along eta), the lower halves eta.

// dblInteriorLow and dblInteriorHigh parameterize the template's
// interior nodes: A/C sit at dblInteriorLow of the layer height, B at
// dblInteriorHigh. Convexity of quads 2/4 requires
// dblInteriorHigh < 2*dblInteriorLow.
const (
	dblInteriorLow  = 0.5  // radial fraction of nodes A and C
	dblInteriorHigh = 0.75 // radial fraction of node B
)

// quad2 is one bilinear quad of the doubling template in the (lateral
// tangent, radius) plane. Corners are indexed [s][t]: s is the lateral-
// ish reference direction, t the radial-ish one, and the corner cycle
// (P00, P10, P11, P01) runs counterclockwise with +lateral right and
// +radius up, so the 2D Jacobian is positive.
type quad2 struct {
	a, r [2][2]float64 // corner coordinates, indexed [s][t]
}

// at evaluates the bilinear map at GLL indices (is, it) through nested
// symLerp, so every edge of the quad reduces to the canonical symmetric
// interpolation of its two corners (see symLerp).
func (q *quad2) at(is, it int) (a, r float64) {
	a = symLerp(symLerp(q.a[0][0], q.a[1][0], is), symLerp(q.a[0][1], q.a[1][1], is), it)
	r = symLerp(symLerp(q.r[0][0], q.r[1][0], is), symLerp(q.r[0][1], q.r[1][1], is), it)
	return a, r
}

// vertical reports whether the quad's lateral coordinate depends on the
// lateral index alone: its lateral corners are equal pairwise, so the
// two inner symLerps of at are equal and the outer one returns the
// first, whatever it is — the same bits on every radial level. Quads
// 1, 3, 5 and 6 of the template, whose sides are vertical, are.
func (q *quad2) vertical() bool {
	return q.a[0][0] == q.a[0][1] && q.a[1][0] == q.a[1][1]
}

// deriv returns the partial derivatives of (a, r) with respect to the
// (s, t) lerp factors at (s, t); used for Jacobians only, so plain
// bilinear derivatives suffice.
func (q *quad2) deriv(s, t float64) (as, at, rs, rt float64) {
	as = (q.a[1][0]-q.a[0][0])*(1-t) + (q.a[1][1]-q.a[0][1])*t
	at = (q.a[0][1]-q.a[0][0])*(1-s) + (q.a[1][1]-q.a[1][0])*s
	rs = (q.r[1][0]-q.r[0][0])*(1-t) + (q.r[1][1]-q.r[0][1])*t
	rt = (q.r[0][1]-q.r[0][0])*(1-s) + (q.r[1][1]-q.r[1][0])*s
	return
}

// dblTemplate builds the six quads of one doubling-template copy. fine
// holds the five consecutive fine-grid tangent values the copy spans
// (fine[0] and fine[4] are also coarse-grid values), r0/r1 the layer's
// bottom/top radii.
func dblTemplate(fine [5]float64, r0, r1 float64) [6]quad2 {
	rA := lerp(r0, r1, dblInteriorLow)
	rB := lerp(r0, r1, dblInteriorHigh)
	// Corners listed counterclockwise as (P00, P10, P11, P01).
	mk := func(c0, c1, c2, c3 [2]float64) quad2 {
		var q quad2
		q.a[0][0], q.r[0][0] = c0[0], c0[1]
		q.a[1][0], q.r[1][0] = c1[0], c1[1]
		q.a[1][1], q.r[1][1] = c2[0], c2[1]
		q.a[0][1], q.r[0][1] = c3[0], c3[1]
		return q
	}
	f := fine
	return [6]quad2{
		mk([2]float64{f[0], r0}, [2]float64{f[1], rA}, [2]float64{f[1], r1}, [2]float64{f[0], r1}),
		mk([2]float64{f[0], r0}, [2]float64{f[2], r0}, [2]float64{f[2], rB}, [2]float64{f[1], rA}),
		mk([2]float64{f[1], rA}, [2]float64{f[2], rB}, [2]float64{f[2], r1}, [2]float64{f[1], r1}),
		mk([2]float64{f[2], r0}, [2]float64{f[4], r0}, [2]float64{f[3], rA}, [2]float64{f[2], rB}),
		mk([2]float64{f[2], rB}, [2]float64{f[3], rA}, [2]float64{f[3], r1}, [2]float64{f[2], r1}),
		mk([2]float64{f[3], rA}, [2]float64{f[4], r0}, [2]float64{f[4], r1}, [2]float64{f[3], r1}),
	}
}

// doubling fills the table for one hex of a doubling layer: the quad
// drives (lateral tangent, r) from the (lateral, third) reference
// directions and the element extrudes over the other tangent interval
// [e0, e1]. alongXi says the quad's lateral direction is xi (an
// xi-doubling layer: lateral index ia, extrusion index ib); otherwise
// it is eta (lateral ib, extrusion ia).
//
// Position and Jacobian share one gnomonic evaluation per node, and a
// vertical quad (quad2.vertical) shares it further: its lateral tangent
// value has the same bits on all five radial levels of a (lateral,
// extrusion) node line, so the line evaluates the map once, at ir = 0,
// and the other four levels reuse it — 25 evaluations per hex instead
// of 125. Every node's operands and operation order are the per-node
// formula's (TestDoublingTablesMatchPerNode).
func (t *elemNodes) doubling(face cubedsphere.Face, q *quad2, e0, e1 float64, alongXi bool) {
	// The quad's map and derivatives depend on (lateral, ir) only.
	var lat, r, ls, lt, rs, rt [mesh.NGLL][mesh.NGLL]float64 // [ir][lateral index]
	for ir := 0; ir < mesh.NGLL; ir++ {
		for il := 0; il < mesh.NGLL; il++ {
			lat[ir][il], r[ir][il] = q.at(il, ir)
			ls[ir][il], lt[ir][il], rs[ir][il], rt[ir][il] = q.deriv(gllS[il], gllS[ir])
		}
	}
	var ext [mesh.NGLL]float64
	for ie := range ext {
		ext[ie] = symLerp(e0, e1, ie)
	}
	reuse := q.vertical()
	for il := 0; il < mesh.NGLL; il++ {
		for ie := 0; ie < mesh.NGLL; ie++ {
			n0 := il + mesh.NGLL*ie
			if !alongXi {
				n0 = ie + mesh.NGLL*il
			}
			// The direction and its partials along the quad's lateral
			// tangent (l) and the extrusion tangent (e).
			var dx, dy, dz, lx, ly, lz, ex, ey, ez float64
			for ir := 0; ir < mesh.NGLL; ir++ {
				if ir == 0 || !reuse {
					if alongXi {
						lx, ly, lz, ex, ey, ez, dx, dy, dz = cubedsphere.TanDerivs(face, lat[ir][il], ext[ie])
					} else {
						ex, ey, ez, lx, ly, lz, dx, dy, dz = cubedsphere.TanDerivs(face, ext[ie], lat[ir][il])
					}
				}
				rr := r[ir][il]
				n := n0 + mesh.NGLL2*ir
				p, cl := &t.Pos[n], &t.cols[n]
				p[0], p[1], p[2] = rr*dx, rr*dy, rr*dz
				// The lateral column 0.5*((ls*r)*dl + rs*dir), the
				// extrusion column ((e1-e0)*r/2)*de, the radial column
				// 0.5*((lt*r)*dl + rt*dir).
				sc, ec := &cl[0], &cl[1]
				if !alongXi {
					sc, ec = ec, sc
				}
				f, g := ls[ir][il]*rr, rs[ir][il]
				sc[0], sc[1], sc[2] = 0.5*(f*lx+g*dx), 0.5*(f*ly+g*dy), 0.5*(f*lz+g*dz)
				f = (e1 - e0) * rr / 2
				ec[0], ec[1], ec[2] = f*ex, f*ey, f*ez
				f, g = lt[ir][il]*rr, rt[ir][il]
				cl[2][0], cl[2][1], cl[2][2] = 0.5*(f*lx+g*dx), 0.5*(f*ly+g*dy), 0.5*(f*lz+g*dz)
			}
		}
	}
	t.radial = false
}
