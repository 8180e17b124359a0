package mesh

import (
	"math"

	"specglobe/internal/gll"
)

// RescanGeometry is the oracle the element audit's geometry is tested
// against: the per-element scans of the global points the audit
// replaced (the minimum GLL spacing of the stable time step and the
// coarsest grid line of the resolution accounting), each its own pass
// over Pts through Ibool. The audit's velocities read materials a
// region does not keep; TestMeshBits pins them.
func RescanGeometry(r *Region, e int) (minSpacing, hMax float64) {
	dist := func(a, b int32) float64 {
		pa, pb := r.Pts[a], r.Pts[b]
		dx, dy, dz := pa[0]-pb[0], pa[1]-pb[1], pa[2]-pb[2]
		return math.Sqrt(dx*dx + dy*dy + dz*dz)
	}
	minSpacing = math.Inf(1)
	for k := 0; k < NGLL; k++ {
		for j := 0; j < NGLL; j++ {
			for i := 0; i+1 < NGLL; i++ {
				if d := dist(r.Ibool[Idx(e, i, j, k)], r.Ibool[Idx(e, i+1, j, k)]); d < minSpacing {
					minSpacing = d
				}
				if d := dist(r.Ibool[Idx(e, j, i, k)], r.Ibool[Idx(e, j, i+1, k)]); d < minSpacing {
					minSpacing = d
				}
				if d := dist(r.Ibool[Idx(e, j, k, i)], r.Ibool[Idx(e, j, k, i+1)]); d < minSpacing {
					minSpacing = d
				}
			}
		}
	}
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
	return minSpacing, hMax / float64(gll.Degree)
}
