// Package mesh defines the region-local spectral-element mesh structures
// shared by the globe mesher (internal/meshfem), the Cartesian test
// mesher (internal/boxmesh) and the solver (internal/solver).
//
// Following SPECFEM3D_GLOBE, each MPI rank holds up to three region
// meshes — crust/mantle (solid), outer core (fluid), inner core (solid,
// including the central cube) — each with its own local-to-global point
// numbering ("ibool"). Points on the fluid-solid boundaries (CMB, ICB)
// exist separately in both adjacent regions and are coupled only through
// surface integrals, exactly as in the original code.
//
// Within a rank, the meshers number a region's points by their position
// in the mesh's integer lattice. Across ranks, the halo match pairs
// points by the raw IEEE-754 bit patterns of their coordinates
// (PointKey): the meshers compute coincident points through
// bit-identical arithmetic (shared grids, endpoint-exact interpolation),
// which removes the need for tolerance-based point merging.
package mesh

import (
	"math"

	"specglobe/internal/earthmodel"
	"specglobe/internal/gll"
)

// NGLL is the number of GLL points per element edge; NGLL3 per element.
const (
	NGLL  = gll.NGLL
	NGLL2 = NGLL * NGLL
	NGLL3 = NGLL * NGLL * NGLL
)

// PointKey identifies a mesh point by the exact bit patterns of its
// coordinates. Two points are the same global point iff their keys are
// equal.
type PointKey [3]uint64

// KeyOf returns the key for a coordinate triple.
func KeyOf(x, y, z float64) PointKey {
	return PointKey{math.Float64bits(x), math.Float64bits(y), math.Float64bits(z)}
}

// Region is one region's local mesh on one rank. Slices indexed by
// element-point run over e*NGLL3 + i + NGLL*j + NGLL2*k.
type Region struct {
	Kind  earthmodel.Region
	NSpec int // number of spectral elements
	NGlob int // number of distinct local grid points

	// Ibool maps element-local points to local global point indices.
	Ibool []int32 // len NSpec*NGLL3

	// Pts holds the coordinates of each local global point.
	Pts [][3]float64 // len NGlob

	// Inverse-mapping partial derivatives at each element point:
	// Xix = d(xi)/dx etc. Jac is the Jacobian determinant |J|, the
	// stiffness quadrature's; the mass quadrature's |J| w_i w_j w_k is
	// folded into Mass and not kept.
	Xix, Xiy, Xiz    []float32
	Etax, Etay, Etaz []float32
	Gamx, Gamy, Gamz []float32
	Jac              []float32

	// Material at each element point, the moduli the stress stage reads
	// in a solid region (Rho is nil) and the density the fluid stage
	// reads in the fluid (Kappa and Mu are nil): what else the builder
	// knew of the material is in Mass and Audit.
	Rho, Kappa, Mu []float32

	// Per-element attenuation quality factors.
	Qmu, Qkappa []float32

	// Mass is the (locally assembled) diagonal mass matrix: for solid
	// regions sum of rho*JacW at each global point, for the fluid sum
	// of JacW/kappa, JacW = |J| w_i w_j w_k. Cross-rank assembly happens
	// in the solver via one halo exchange at startup.
	Mass []float32 // len NGlob

	// Audit holds one ElemAudit per element (len NSpec), filled by
	// Fold; minSpacing and maxVp are its region-wide extremes, the
	// inputs of StableDt, taken by Finish.
	Audit             []ElemAudit
	minSpacing, maxVp float64
}

// NewRegion allocates a region's element arrays for nspec elements, the
// materials by kind; the mesher sets NGlob and Pts.
func NewRegion(kind earthmodel.Region, nspec int) *Region {
	n := nspec * NGLL3
	r := &Region{
		Kind:  kind,
		NSpec: nspec,
		Ibool: make([]int32, n),
		Xix:   make([]float32, n), Xiy: make([]float32, n), Xiz: make([]float32, n),
		Etax: make([]float32, n), Etay: make([]float32, n), Etaz: make([]float32, n),
		Gamx: make([]float32, n), Gamy: make([]float32, n), Gamz: make([]float32, n),
		Jac: make([]float32, n),
		Qmu: make([]float32, nspec), Qkappa: make([]float32, nspec),
	}
	if r.IsFluid() {
		r.Rho = make([]float32, n)
	} else {
		r.Kappa, r.Mu = make([]float32, n), make([]float32, n)
	}
	return r
}

// W3 holds the 3-D GLL quadrature weight w_i w_j w_k of each element
// point: |J| times it is the point's share of the element's volume.
var W3 = func() (w3 [NGLL3]float64) {
	w := gll.Weights(gll.Degree, gll.Points(gll.Degree))
	for p := range w3 {
		w3[p] = w[p%NGLL] * w[p/NGLL%NGLL] * w[p/NGLL2]
	}
	return w3
}()

// IsFluid reports whether this region carries the scalar potential field
// instead of displacement.
func (r *Region) IsFluid() bool { return r.Kind == earthmodel.RegionOuterCore }

// Idx returns the flat element-point index for element e and local
// coordinates (i, j, k).
func Idx(e, i, j, k int) int { return e*NGLL3 + i + NGLL*j + NGLL2*k }

// Volume returns the region's discrete volume, the quadrature of the
// constant 1: the sum of Jac * W3 over all element points, in float64.
func (r *Region) Volume() float64 {
	v := 0.0
	for ip, j := range r.Jac {
		v += float64(j) * W3[ip%NGLL3]
	}
	return v
}
