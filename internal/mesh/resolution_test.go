package mesh_test

import (
	"math"
	"testing"

	"specglobe/internal/boxmesh"
	"specglobe/internal/earthmodel"
	"specglobe/internal/gll"
	"specglobe/internal/mesh"
)

// On a homogeneous Cartesian box the resolution accounting has a closed
// form: every element is an L-sided cube, so the coarsest mean GLL
// spacing is L/Degree and pts-per-wavelength is Vs*T*Degree/L.
func TestResolutionStatsAnalyticOnBox(t *testing.T) {
	mat := earthmodel.Material{Rho: 3000, Vp: 6000, Vs: 3500, Qmu: 300, Qkappa: 57823}
	const L = 250e3 // element edge: 1000 km / 4 elements
	box, err := boxmesh.Build(boxmesh.Config{
		Nx: 4, Ny: 4, Nz: 4, Lx: 1000e3, Ly: 1000e3, Lz: 1000e3,
		NRanks: 2, Mat: mat,
	})
	if err != nil {
		t.Fatal(err)
	}
	const T = 50.0
	want := mat.Vs * T * float64(gll.Degree) / L
	s := mesh.ComputeResolutionStats(box.Locals, T)
	if s.Elements != 64 {
		t.Fatalf("elements %d", s.Elements)
	}
	// Materials are stored as float32, so allow that roundoff.
	if math.Abs(s.MinPts-want) > 1e-4*want {
		t.Errorf("min pts %g, want analytic %g", s.MinPts, want)
	}
	if math.Abs(s.MeanPts-want) > 1e-4*want {
		t.Errorf("mean pts %g, want analytic %g (homogeneous cube mesh)", s.MeanPts, want)
	}
	if s.PeriodS != T {
		t.Errorf("period %g", s.PeriodS)
	}
	// Doubling the period doubles every wavelength.
	s2 := mesh.ComputeResolutionStats(box.Locals, 2*T)
	if math.Abs(s2.MinPts-2*s.MinPts) > 1e-9*s.MinPts {
		t.Errorf("pts did not scale with period: %g vs %g", s2.MinPts, s.MinPts)
	}
}

// The worst element must actually be the worst: stretch the box along z
// so the tall elements (coarser spacing) govern, and check the minimum
// ratio against the stretched closed form.
func TestResolutionStatsWorstDirection(t *testing.T) {
	mat := earthmodel.Material{Rho: 3000, Vp: 6000, Vs: 3500, Qmu: 300, Qkappa: 57823}
	box, err := boxmesh.Build(boxmesh.Config{
		Nx: 4, Ny: 4, Nz: 2, Lx: 1000e3, Ly: 1000e3, Lz: 1000e3,
		NRanks: 1, Mat: mat,
	})
	if err != nil {
		t.Fatal(err)
	}
	const T = 50.0
	// z elements are 500 km tall vs 250 km wide: the tall direction
	// halves the points per wavelength.
	want := mat.Vs * T * float64(gll.Degree) / 500e3
	s := mesh.ComputeResolutionStats(box.Locals, T)
	if math.Abs(s.MinPts-want) > 1e-4*want {
		t.Errorf("min pts %g, want tall-direction %g", s.MinPts, want)
	}
}

// In a fluid region (Mu == 0) the P velocity governs.
func TestResolutionStatsFluidUsesP(t *testing.T) {
	mat := earthmodel.Material{Rho: 3000, Vp: 6000, Vs: 3500, Qmu: 300, Qkappa: 57823}
	// The second box carries the first one's bulk modulus and no shear:
	// its elements are acoustically governed and their resolution must
	// rise to the (faster) P wavelength.
	acoustic := mat
	acoustic.Vp, acoustic.Vs = math.Sqrt(mat.Kappa()/mat.Rho), 0
	pts := func(mat earthmodel.Material) float64 {
		box, err := boxmesh.Build(boxmesh.Config{
			Nx: 4, Ny: 4, Nz: 4, Lx: 1000e3, Ly: 1000e3, Lz: 1000e3,
			NRanks: 1, Mat: mat,
		})
		if err != nil {
			t.Fatal(err)
		}
		return box.Locals[0].Regions[earthmodel.RegionCrustMantle].PtsPerWavelength(0, 50)
	}
	solid, fluid := pts(mat), pts(acoustic)
	// With the stored bulk modulus unchanged, the acoustic speed is
	// sqrt(kappa/rho) (= Vp only when the material truly carries no
	// shear, as in the outer core).
	want := math.Sqrt(mat.Kappa()/mat.Rho) / mat.Vs
	if ratio := fluid / solid; math.Abs(ratio-want) > 1e-3 {
		t.Errorf("fluid/solid pts ratio %g, want sqrt(kappa/rho)/Vs %g", ratio, want)
	}
}
