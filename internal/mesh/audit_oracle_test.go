package mesh

import (
	"math"

	"specglobe/internal/gll"
)

// RescanElement is the oracle the element audit is tested against: the
// per-element scans the audit replaced (the minimum GLL spacing and the
// maximum P velocity of the stable time step, the coarsest grid line and
// the slowest wave of the resolution accounting), each its own pass.
func RescanElement(r *Region, e int) ElemAudit {
	dist := func(a, b int32) float64 {
		pa, pb := r.Pts[a], r.Pts[b]
		dx, dy, dz := pa[0]-pb[0], pa[1]-pb[1], pa[2]-pb[2]
		return math.Sqrt(dx*dx + dy*dy + dz*dz)
	}
	minD := math.Inf(1)
	for k := 0; k < NGLL; k++ {
		for j := 0; j < NGLL; j++ {
			for i := 0; i+1 < NGLL; i++ {
				if d := dist(r.Ibool[Idx(e, i, j, k)], r.Ibool[Idx(e, i+1, j, k)]); d < minD {
					minD = d
				}
				if d := dist(r.Ibool[Idx(e, j, i, k)], r.Ibool[Idx(e, j, i+1, k)]); d < minD {
					minD = d
				}
				if d := dist(r.Ibool[Idx(e, j, k, i)], r.Ibool[Idx(e, j, k, i+1)]); d < minD {
					minD = d
				}
			}
		}
	}
	maxV := 0.0
	for p := e * NGLL3; p < (e+1)*NGLL3; p++ {
		vp := math.Sqrt(float64((r.Kappa[p] + 4.0/3.0*r.Mu[p]) / r.Rho[p]))
		if vp > maxV {
			maxV = vp
		}
	}
	hMax := 0.0
	for a := 0; a < NGLL; a++ {
		for b := 0; b < NGLL; b++ {
			var li, lj, lk float64
			for s := 0; s+1 < NGLL; s++ {
				li += dist(r.Ibool[Idx(e, s, a, b)], r.Ibool[Idx(e, s+1, a, b)])
				lj += dist(r.Ibool[Idx(e, a, s, b)], r.Ibool[Idx(e, a, s+1, b)])
				lk += dist(r.Ibool[Idx(e, a, b, s)], r.Ibool[Idx(e, a, b, s+1)])
			}
			for _, l := range [3]float64{li, lj, lk} {
				if l > hMax {
					hMax = l
				}
			}
		}
	}
	hMax /= float64(gll.Degree)
	vMin := math.Inf(1)
	for p := e * NGLL3; p < (e+1)*NGLL3; p++ {
		var v float64
		if r.Mu[p] > 0 {
			v = math.Sqrt(float64(r.Mu[p] / r.Rho[p]))
		} else {
			v = math.Sqrt(float64(r.Kappa[p] / r.Rho[p]))
		}
		if v < vMin {
			vMin = v
		}
	}
	return ElemAudit{MinSpacing: minD, MaxVp: maxV, HMax: hMax, VMin: vMin}
}
