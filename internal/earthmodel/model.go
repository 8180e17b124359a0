// Package earthmodel provides the radially symmetric Earth models the
// mesher and solver sample: the full PREM reference model (Dziewonski &
// Anderson 1981) with its attenuation structure, plus homogeneous test
// models. It also computes the background gravity profile g(r) by
// integrating the density, and fits standard-linear-solid attenuation
// mechanisms to a constant quality factor over the simulated frequency
// band (the memory-variable machinery the solver's attenuation mode
// uses), and tabulates the minimum-wavelength profile (S velocity in
// solids, P in the fluid core, times the target period) that sizes the
// mesh by the paper's ~5 points-per-wavelength rule of section 3.
//
// The paper's production runs use 3D tomographic and crustal models
// layered on a radial reference; those data sets are a data gate
// (DESIGN.md), so this reproduction exercises the same code paths —
// solid/fluid/solid layering, discontinuity snapping, attenuation,
// ocean loading — with PREM itself.
package earthmodel

import (
	"fmt"
	"math"
)

// Region classifies a radius into one of the simulation regions used by
// SPECFEM3D_GLOBE's domain decomposition.
type Region int

const (
	RegionCrustMantle Region = iota // solid: surface down to CMB
	RegionOuterCore                 // fluid: CMB down to ICB
	RegionInnerCore                 // solid: ICB to center (incl. central cube)
)

// String returns the SPECFEM-style region name.
func (r Region) String() string {
	switch r {
	case RegionCrustMantle:
		return "crust_mantle"
	case RegionOuterCore:
		return "outer_core"
	case RegionInnerCore:
		return "inner_core"
	}
	return fmt.Sprintf("Region(%d)", int(r))
}

// Material holds the isotropic elastic and anelastic properties at a
// point. Units are SI: kg/m^3 and m/s. Q values are dimensionless
// quality factors; Qmu <= 0 means no shear attenuation (fluid).
type Material struct {
	Rho    float64 // density
	Vp     float64 // compressional wave speed
	Vs     float64 // shear wave speed (0 in fluid)
	Qmu    float64 // shear quality factor
	Qkappa float64 // bulk quality factor
}

// Mu returns the shear modulus rho*Vs^2.
func (m Material) Mu() float64 { return m.Rho * m.Vs * m.Vs }

// Kappa returns the bulk modulus rho*(Vp^2 - 4/3 Vs^2).
func (m Material) Kappa() float64 { return m.Rho * (m.Vp*m.Vp - 4.0/3.0*m.Vs*m.Vs) }

// Lambda returns the first Lame parameter kappa - 2/3 mu.
func (m Material) Lambda() float64 { return m.Kappa() - 2.0/3.0*m.Mu() }

// IsFluid reports whether the material supports no shear.
func (m Material) IsFluid() bool { return m.Vs == 0 }

// Model is a radially symmetric Earth model.
type Model interface {
	// Name identifies the model (e.g. "PREM").
	Name() string
	// SurfaceRadius returns the outer radius in meters.
	SurfaceRadius() float64
	// CMB returns the core-mantle boundary radius in meters.
	CMB() float64
	// ICB returns the inner-core boundary radius in meters.
	ICB() float64
	// At evaluates the material at radius r (meters). Exactly at a
	// discontinuity it returns the values of the layer below.
	At(r float64) Material
	// Discontinuities returns the radii (meters) of first-order
	// discontinuities, ascending, excluding center and surface. The
	// mesher snaps element boundaries to these.
	Discontinuities() []float64
	// OceanDepth returns the water-column thickness (meters) above the
	// solid surface; 0 for models without an ocean.
	OceanDepth() float64
}

// RegionOf classifies a radius against the model's core boundaries.
func RegionOf(m Model, r float64) Region {
	switch {
	case r < m.ICB():
		return RegionInnerCore
	case r < m.CMB():
		return RegionOuterCore
	default:
		return RegionCrustMantle
	}
}

// GravityProfile tabulates g(r) = G M(r) / r^2 for a model by midpoint
// integration of the density profile, and serves interpolated lookups.
// This is the background gravity used by the solver's (Cowling-style)
// gravity term.
type GravityProfile struct {
	model Model
	dr    float64
	g     []float64 // g at radii i*dr
}

// GravitationalConstant in SI units.
const GravitationalConstant = 6.67430e-11

// NewGravityProfile integrates the model density on n shells.
func NewGravityProfile(m Model, n int) *GravityProfile {
	if n < 10 {
		n = 10
	}
	p := &GravityProfile{model: m, dr: m.SurfaceRadius() / float64(n)}
	p.g = make([]float64, n+1)
	mass := 0.0
	for i := 1; i <= n; i++ {
		rMid := (float64(i) - 0.5) * p.dr
		rho := m.At(rMid).Rho
		rOut := float64(i) * p.dr
		rIn := rOut - p.dr
		mass += 4.0 / 3.0 * math.Pi * rho * (rOut*rOut*rOut - rIn*rIn*rIn)
		p.g[i] = GravitationalConstant * mass / (rOut * rOut)
	}
	return p
}

// At returns g at radius r (meters) by linear interpolation; r is
// clamped to [0, surface].
func (p *GravityProfile) At(r float64) float64 {
	if r <= 0 {
		return 0
	}
	x := r / p.dr
	i := int(x)
	if i >= len(p.g)-1 {
		// Above the tabulated surface: g falls off as 1/r^2.
		rs := float64(len(p.g)-1) * p.dr
		return p.g[len(p.g)-1] * (rs * rs) / (r * r)
	}
	f := x - float64(i)
	return p.g[i]*(1-f) + p.g[i+1]*f
}

// Homogeneous is a uniform solid ball, used by validation tests: waves in
// it admit simple analytic behavior and all SEM machinery still runs.
type Homogeneous struct {
	ModelName string
	Radius    float64
	Mat       Material
	// FluidCoreRadii optionally carves a fluid shell [ICBr, CMBr] out
	// of the ball so coupling paths can be tested on simple media.
	CMBRadius, ICBRadius float64
}

// NewHomogeneous returns a uniform solid ball with the given radius and
// material and no fluid core (CMB and ICB collapse near the center so
// every shell is crust/mantle).
func NewHomogeneous(radius float64, mat Material) *Homogeneous {
	return &Homogeneous{ModelName: "homogeneous", Radius: radius, Mat: mat,
		CMBRadius: 0, ICBRadius: 0}
}

// ByName returns the model a name selects: "prem" (the ocean as a
// surface load), "prem_noocean" or "earthlike" (EarthLike). It is the
// one name table behind `specfem -model` and the daemon's JobSpec.Model.
func ByName(name string) (Model, error) {
	switch name {
	case "prem":
		return NewPREM(), nil
	case "prem_noocean":
		return NewPREMNoOcean(), nil
	case "earthlike":
		return EarthLike(), nil
	}
	return nil, fmt.Errorf("unknown model %q (have prem, prem_noocean, earthlike)", name)
}

// EarthLike returns the Earth-sized homogeneous model with PREM's core
// radii (solid mantle, fluid outer core, solid inner core): cheap to
// mesh, it is the one definition behind the "earthlike" model name and
// the timing experiments.
func EarthLike() *Homogeneous {
	h := NewHomogeneous(6371e3, Material{
		Rho: 5000, Vp: 10000, Vs: 5500, Qmu: 300, Qkappa: 57823,
	})
	h.ICBRadius = 1221.5e3
	h.CMBRadius = 3480e3
	return h
}

func (h *Homogeneous) Name() string { return h.ModelName }

func (h *Homogeneous) SurfaceRadius() float64 { return h.Radius }

func (h *Homogeneous) CMB() float64 { return h.CMBRadius }

func (h *Homogeneous) ICB() float64 { return h.ICBRadius }

func (h *Homogeneous) At(r float64) Material {
	if r >= h.ICBRadius && r < h.CMBRadius {
		f := h.Mat
		f.Vs = 0
		f.Qmu = 0
		return f
	}
	return h.Mat
}

func (h *Homogeneous) Discontinuities() []float64 {
	var d []float64
	if h.ICBRadius > 0 {
		d = append(d, h.ICBRadius)
	}
	if h.CMBRadius > h.ICBRadius {
		d = append(d, h.CMBRadius)
	}
	return d
}

func (h *Homogeneous) OceanDepth() float64 { return 0 }
