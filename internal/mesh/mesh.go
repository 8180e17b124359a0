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
	"fmt"
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
	// Xix = d(xi)/dx etc. Jac is the Jacobian determinant |J| (used by
	// the stiffness quadrature) and JacW = |J| * w_i w_j w_k (used by
	// the mass quadrature).
	Xix, Xiy, Xiz    []float32
	Etax, Etay, Etaz []float32
	Gamx, Gamy, Gamz []float32
	Jac, JacW        []float32

	// Material at each element point (Mu = 0 in the fluid).
	Rho, Kappa, Mu []float32

	// Per-element attenuation quality factors.
	Qmu, Qkappa []float32

	// Mass is the (locally assembled) diagonal mass matrix: for solid
	// regions sum of rho*JacW at each global point, for the fluid sum
	// of JacW/kappa. Cross-rank assembly happens in the solver via one
	// halo exchange at startup.
	Mass []float32 // len NGlob

	// Audit holds one ElemAudit per element (len NSpec), filled by
	// Finish/AuditElements; minSpacing and maxVp are its region-wide
	// extremes, the inputs of StableDt.
	Audit             []ElemAudit
	minSpacing, maxVp float64
}

// NewRegion allocates a region's element arrays for nspec elements; the
// mesher sets NGlob and Pts.
func NewRegion(kind earthmodel.Region, nspec int) *Region {
	n := nspec * NGLL3
	return &Region{
		Kind:  kind,
		NSpec: nspec,
		Ibool: make([]int32, n),
		Xix:   make([]float32, n), Xiy: make([]float32, n), Xiz: make([]float32, n),
		Etax: make([]float32, n), Etay: make([]float32, n), Etaz: make([]float32, n),
		Gamx: make([]float32, n), Gamy: make([]float32, n), Gamz: make([]float32, n),
		Jac: make([]float32, n), JacW: make([]float32, n),
		Rho: make([]float32, n), Kappa: make([]float32, n), Mu: make([]float32, n),
		Qmu: make([]float32, nspec), Qkappa: make([]float32, nspec),
	}
}

// IsFluid reports whether this region carries the scalar potential field
// instead of displacement.
func (r *Region) IsFluid() bool { return r.Kind == earthmodel.RegionOuterCore }

// Idx returns the flat element-point index for element e and local
// coordinates (i, j, k).
func Idx(e, i, j, k int) int { return e*NGLL3 + i + NGLL*j + NGLL2*k }

// AssembleMassLocal computes the region's locally assembled diagonal
// mass matrix from the material and Jacobian-weight arrays.
func (r *Region) AssembleMassLocal() {
	r.Mass = make([]float32, r.NGlob)
	for e := 0; e < r.NSpec; e++ {
		for p := 0; p < NGLL3; p++ {
			ip := e*NGLL3 + p
			g := r.Ibool[ip]
			if r.IsFluid() {
				r.Mass[g] += r.JacW[ip] / r.Kappa[ip]
			} else {
				r.Mass[g] += r.Rho[ip] * r.JacW[ip]
			}
		}
	}
}

// Validate performs structural sanity checks and returns the first
// problem found. Meshers call it before handing meshes to the solver.
func (r *Region) Validate() error {
	if len(r.Ibool) != r.NSpec*NGLL3 {
		return fmt.Errorf("mesh: region %v: ibool length %d, want %d", r.Kind, len(r.Ibool), r.NSpec*NGLL3)
	}
	if len(r.Pts) != r.NGlob {
		return fmt.Errorf("mesh: region %v: %d points recorded, NGlob=%d", r.Kind, len(r.Pts), r.NGlob)
	}
	for i, g := range r.Ibool {
		if g < 0 || int(g) >= r.NGlob {
			return fmt.Errorf("mesh: region %v: ibool[%d]=%d out of range [0,%d)", r.Kind, i, g, r.NGlob)
		}
	}
	for e := 0; e < r.NSpec; e++ {
		for p := 0; p < NGLL3; p++ {
			if j := r.JacW[e*NGLL3+p]; j <= 0 || math.IsNaN(float64(j)) {
				return fmt.Errorf("mesh: region %v: non-positive JacW %g at elem %d point %d", r.Kind, j, e, p)
			}
		}
	}
	for i := range r.Rho {
		if r.Rho[i] <= 0 {
			return fmt.Errorf("mesh: region %v: non-positive density at %d", r.Kind, i)
		}
		if r.Kappa[i] <= 0 {
			return fmt.Errorf("mesh: region %v: non-positive kappa at %d", r.Kind, i)
		}
		if r.Mu[i] < 0 {
			return fmt.Errorf("mesh: region %v: negative mu at %d", r.Kind, i)
		}
		if r.IsFluid() && r.Mu[i] != 0 {
			return fmt.Errorf("mesh: fluid region %v has shear modulus at %d", r.Kind, i)
		}
	}
	return nil
}

// Volume returns the region's discrete volume, the sum of JacW over all
// element points (the quadrature of the constant 1).
func (r *Region) Volume() float64 {
	v := 0.0
	for _, j := range r.JacW {
		v += float64(j)
	}
	return v
}
