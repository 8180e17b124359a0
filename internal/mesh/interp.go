package mesh

import "specglobe/internal/gll"

// Lagrange interpolation of element data at arbitrary reference
// coordinates, used for source injection, station recording and
// geometry checks.

var gllPoints = gll.Points(gll.Degree)

// Weights3D returns the NGLL3 trilinear-product Lagrange weights for a
// reference position in [-1,1]^3, ordered like element points
// (i fastest).
func Weights3D(ref [3]float64) [NGLL3]float64 {
	lx := gll.Lagrange(gllPoints, ref[0])
	ly := gll.Lagrange(gllPoints, ref[1])
	lz := gll.Lagrange(gllPoints, ref[2])
	var w [NGLL3]float64
	for k := 0; k < NGLL; k++ {
		for j := 0; j < NGLL; j++ {
			for i := 0; i < NGLL; i++ {
				w[i+NGLL*j+NGLL2*k] = lx[i] * ly[j] * lz[k]
			}
		}
	}
	return w
}

// InterpolateGeometry evaluates the element's geometry (point
// coordinates) at reference coordinates.
func InterpolateGeometry(r *Region, elem int, ref [3]float64) [3]float64 {
	w := Weights3D(ref)
	var out [3]float64
	for p := 0; p < NGLL3; p++ {
		g := r.Ibool[elem*NGLL3+p]
		pt := r.Pts[g]
		out[0] += w[p] * pt[0]
		out[1] += w[p] * pt[1]
		out[2] += w[p] * pt[2]
	}
	return out
}
