package mesh

import (
	"fmt"
	"math"

	"specglobe/internal/gll"
)

// The element audit: one pass over each finished element records the
// four numbers every later question about the element's scale is a
// reduction of — the stable time step (StableDt and ElementDt) and the points-per-wavelength resolution (PtsPerWavelength,
// ComputeResolutionStats and the mesher's per-layer tables). The meshers
// run it on the rank that builds the region, in parallel with the other
// ranks, so no consumer rescans the mesh.

// ElemAudit is the audit of one element.
type ElemAudit struct {
	// MinSpacing is the smallest distance between adjacent GLL points
	// along the element's grid lines: the length scale of the stable
	// time step.
	MinSpacing float64
	// MaxVp is the largest P velocity at the element's points.
	MaxVp float64
	// HMax is the mean GLL spacing in the element's coarsest direction:
	// the longest grid line's length divided by gll.Degree.
	HMax float64
	// VMin is the slowest wave the element's material supports: S where
	// a point carries shear, P at fluid points (Mu == 0).
	VMin float64
}

// Element is one finished element as its region builder hands it to
// Fold: the mass quadrature weight and the material at each of its
// points, and its node table.
type Element struct {
	// MassW is JacW = |J| w_i w_j w_k at each point, the mass quadrature
	// weight.
	MassW [NGLL3]float32
	// Rho, Kappa and Mu are the material at each point (Mu = 0 in the
	// fluid).
	Rho, Kappa, Mu [NGLL3]float32
	// Pos is each node's position: the bits of Pts at its Ibool entry.
	Pos [NGLL3][3]float64
}

// Fold completes element e of r, whose Ibool and metric entries are
// written, from el, in one pass: it checks el's points, keeps the
// materials r holds, adds el's mass into Mass and writes Audit[e].
// Builders fold elements in ascending order after setting NGlob, so
// each Mass entry sums its terms in (e, p) order. Finish completes the
// region.
func (r *Region) Fold(e int, el *Element) error {
	if r.Audit == nil {
		r.Mass, r.Audit = make([]float32, r.NGlob), make([]ElemAudit, r.NSpec)
	}
	base := e * NGLL3
	fluid := r.IsFluid()
	for p, g := range r.Ibool[base : base+NGLL3] {
		switch jw, rho, kappa, mu := el.MassW[p], el.Rho[p], el.Kappa[p], el.Mu[p]; {
		case g < 0 || int(g) >= r.NGlob:
			return fmt.Errorf("mesh: region %v: ibool[%d]=%d out of range [0,%d)", r.Kind, base+p, g, r.NGlob)
		case !(jw > 0):
			return fmt.Errorf("mesh: region %v: non-positive JacW %g at elem %d point %d", r.Kind, jw, e, p)
		case !(rho > 0):
			return fmt.Errorf("mesh: region %v: non-positive density at elem %d point %d", r.Kind, e, p)
		case !(kappa > 0):
			return fmt.Errorf("mesh: region %v: non-positive kappa at elem %d point %d", r.Kind, e, p)
		case !(mu >= 0):
			return fmt.Errorf("mesh: region %v: negative mu at elem %d point %d", r.Kind, e, p)
		case fluid && mu != 0:
			return fmt.Errorf("mesh: fluid region %v has shear modulus at elem %d point %d", r.Kind, e, p)
		case fluid:
			r.Mass[g] += jw / kappa
		default:
			r.Mass[g] += rho * jw
		}
	}
	if fluid {
		copy(r.Rho[base:base+NGLL3], el.Rho[:])
	} else {
		copy(r.Kappa[base:base+NGLL3], el.Kappa[:])
		copy(r.Mu[base:base+NGLL3], el.Mu[:])
	}
	r.Audit[e] = el.audit()
	return nil
}

// Finish completes a region whose elements are all folded (or whose
// Mass and Audit were read back): it checks that every array has its
// length and every point a positive mass, and takes the audit's
// region-wide extremes. Every region builder ends with it.
func (r *Region) Finish() error {
	if len(r.Ibool) != r.NSpec*NGLL3 || len(r.Audit) != r.NSpec || len(r.Pts) != r.NGlob || len(r.Mass) != r.NGlob {
		return fmt.Errorf("mesh: region %v of %d elements and %d points holds %d ibool entries, %d audits, %d points and %d masses",
			r.Kind, r.NSpec, r.NGlob, len(r.Ibool), len(r.Audit), len(r.Pts), len(r.Mass))
	}
	for g, m := range r.Mass {
		if !(m > 0) || math.IsInf(float64(m), 1) {
			return fmt.Errorf("mesh: region %v: point %d has mass %g", r.Kind, g, m)
		}
	}
	r.minSpacing, r.maxVp = math.Inf(1), 0
	for _, a := range r.Audit {
		if a.MinSpacing < r.minSpacing {
			r.minSpacing = a.MinSpacing
		}
		if a.MaxVp > r.maxVp {
			r.maxVp = a.MaxVp
		}
	}
	return nil
}

// audit walks the element once: the 3*NGLL^2 grid lines of its node
// table, summing each line's GLL intervals in order, and the NGLL3
// material points.
func (el *Element) audit() ElemAudit {
	dist := func(a, b int) float64 {
		pa, pb := &el.Pos[a], &el.Pos[b]
		dx, dy, dz := pa[0]-pb[0], pa[1]-pb[1], pa[2]-pb[2]
		return math.Sqrt(dx*dx + dy*dy + dz*dz)
	}
	au := ElemAudit{MinSpacing: math.Inf(1), VMin: math.Inf(1)}
	hMax := 0.0
	for a := 0; a < NGLL; a++ {
		for b := 0; b < NGLL; b++ {
			var li, lj, lk float64
			for s := 0; s+1 < NGLL; s++ {
				di := dist(s+NGLL*a+NGLL2*b, s+1+NGLL*a+NGLL2*b)
				dj := dist(a+NGLL*s+NGLL2*b, a+NGLL*(s+1)+NGLL2*b)
				dk := dist(a+NGLL*b+NGLL2*s, a+NGLL*b+NGLL2*(s+1))
				li += di
				lj += dj
				lk += dk
				for _, d := range [3]float64{di, dj, dk} {
					if d < au.MinSpacing {
						au.MinSpacing = d
					}
				}
			}
			for _, l := range [3]float64{li, lj, lk} {
				if l > hMax {
					hMax = l
				}
			}
		}
	}
	au.HMax = hMax / float64(gll.Degree)
	for p := range el.Rho {
		if vp := math.Sqrt(float64((el.Kappa[p] + 4.0/3.0*el.Mu[p]) / el.Rho[p])); vp > au.MaxVp {
			au.MaxVp = vp
		}
		var v float64
		if el.Mu[p] > 0 {
			v = math.Sqrt(float64(el.Mu[p] / el.Rho[p]))
		} else {
			v = math.Sqrt(float64(el.Kappa[p] / el.Rho[p]))
		}
		if v < au.VMin {
			au.VMin = v
		}
	}
	return au
}

// audited returns the element audit, which every reader needs to cover
// the region's elements.
func (r *Region) audited() []ElemAudit {
	if len(r.Audit) != r.NSpec {
		panic(fmt.Sprintf("mesh: region %v holds %d element audits for %d elements (fold its elements with Fold)",
			r.Kind, len(r.Audit), r.NSpec))
	}
	return r.Audit
}

// StableDt returns a conservative explicit-Newmark time step for the
// region: courant * min(dx_gll) / max(vp) over its elements, pairing the
// region-wide extremes (cheap and safe rather than per-element exact).
func (r *Region) StableDt(courant float64) float64 {
	if r.NSpec == 0 {
		return math.Inf(1)
	}
	r.audited()
	return courant * r.minSpacing / r.maxVp
}

// Courant is the stability number of the automatic time step: every
// solve whose dt is not given steps at StableDt(locals, Courant).
const Courant = 0.3

// StableDt returns the automatic global time step of a distributed mesh:
// the smallest Region.StableDt over every rank's regions.
func StableDt(locals []*Local, courant float64) float64 {
	dt := math.Inf(1)
	for _, l := range locals {
		for _, r := range l.Regions {
			if r != nil && r.NSpec > 0 {
				if d := r.StableDt(courant); d < dt {
					dt = d
				}
			}
		}
	}
	return dt
}

// ElementDt returns the per-element stable time step of element e:
// courant * (smallest GLL spacing of e) / (largest wave speed of e).
// The region-wide StableDt is at or below the minimum of these; the
// spread between an element's own dt and the global minimum is the
// headroom a coarse element leaves unused.
func (r *Region) ElementDt(e int, courant float64) float64 {
	a := &r.audited()[e]
	return courant * a.MinSpacing / a.MaxVp
}
