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

// Finish completes a region whose element arrays are filled: it checks
// the structure (Validate), assembles the local mass matrix and audits
// every element. Every region builder — the meshers, the legacy-database
// reader — ends with it.
func (r *Region) Finish() error {
	if err := r.Validate(); err != nil {
		return err
	}
	r.AssembleMassLocal()
	r.AuditElements()
	return nil
}

// AuditElements (re)computes the element audit. A caller that changes
// a finished region's coordinates or materials calls it again.
func (r *Region) AuditElements() {
	r.Audit = make([]ElemAudit, r.NSpec)
	r.minSpacing, r.maxVp = math.Inf(1), 0
	for e := range r.Audit {
		a := r.auditElement(e)
		r.Audit[e] = a
		if a.MinSpacing < r.minSpacing {
			r.minSpacing = a.MinSpacing
		}
		if a.MaxVp > r.maxVp {
			r.maxVp = a.MaxVp
		}
	}
}

// auditElement walks element e once: the 3*NGLL^2 grid lines, summing
// each line's GLL intervals in order, and the NGLL3 material points.
func (r *Region) auditElement(e int) ElemAudit {
	ib := r.Ibool[e*NGLL3 : (e+1)*NGLL3]
	dist := func(a, b int32) float64 {
		pa, pb := r.Pts[a], r.Pts[b]
		dx, dy, dz := pa[0]-pb[0], pa[1]-pb[1], pa[2]-pb[2]
		return math.Sqrt(dx*dx + dy*dy + dz*dz)
	}
	au := ElemAudit{MinSpacing: math.Inf(1), VMin: math.Inf(1)}
	hMax := 0.0
	for a := 0; a < NGLL; a++ {
		for b := 0; b < NGLL; b++ {
			var li, lj, lk float64
			for s := 0; s+1 < NGLL; s++ {
				di := dist(ib[s+NGLL*a+NGLL2*b], ib[s+1+NGLL*a+NGLL2*b])
				dj := dist(ib[a+NGLL*s+NGLL2*b], ib[a+NGLL*(s+1)+NGLL2*b])
				dk := dist(ib[a+NGLL*b+NGLL2*s], ib[a+NGLL*b+NGLL2*(s+1)])
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
	for p := e * NGLL3; p < (e+1)*NGLL3; p++ {
		if vp := math.Sqrt(float64((r.Kappa[p] + 4.0/3.0*r.Mu[p]) / r.Rho[p])); vp > au.MaxVp {
			au.MaxVp = vp
		}
		var v float64
		if r.Mu[p] > 0 {
			v = math.Sqrt(float64(r.Mu[p] / r.Rho[p]))
		} else {
			v = math.Sqrt(float64(r.Kappa[p] / r.Rho[p]))
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
		panic(fmt.Sprintf("mesh: region %v holds %d element audits for %d elements (finish it with Finish or AuditElements)",
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
