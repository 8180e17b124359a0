package earthmodel

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// Published PREM values at key radii (SI units). Velocities from the
// Dziewonski & Anderson (1981) tables, tolerance covers rounding in the
// published tables.
func TestPREMKnownValues(t *testing.T) {
	p := NewPREM()
	cases := []struct {
		name           string
		r              float64
		wantRho        float64
		wantVp, wantVs float64
		tolRho, tolV   float64
		wantFluid      bool
	}{
		{"center", 0, 13088.5, 11262.2, 3667.8, 1, 1, false},
		{"just below ICB", PREMICB - 1, 12763.6, 11028.3, 3504.3, 5, 5, false},
		{"just above ICB (fluid)", PREMICB + 1, 12166.3, 10355.7, 0, 5, 5, true},
		{"just below CMB (fluid)", PREMCMB - 1, 9903.4, 8064.8, 0, 5, 5, true},
		{"just above CMB", PREMCMB + 1, 5566.5, 13716.6, 7264.7, 5, 5, false},
		{"upper crust", PREMSurfaceRadius - 1000, 2600, 5800, 3200, 0.5, 0.5, false},
		{"lower crust", PREMMidCrust - 1000, 2900, 6800, 3900, 0.5, 0.5, false},
	}
	for _, c := range cases {
		m := p.At(c.r)
		if math.Abs(m.Rho-c.wantRho) > c.tolRho {
			t.Errorf("%s: rho = %.1f want %.1f", c.name, m.Rho, c.wantRho)
		}
		if math.Abs(m.Vp-c.wantVp) > c.tolV {
			t.Errorf("%s: vp = %.1f want %.1f", c.name, m.Vp, c.wantVp)
		}
		if math.Abs(m.Vs-c.wantVs) > c.tolV {
			t.Errorf("%s: vs = %.1f want %.1f", c.name, m.Vs, c.wantVs)
		}
		if m.IsFluid() != c.wantFluid {
			t.Errorf("%s: fluid = %v want %v", c.name, m.IsFluid(), c.wantFluid)
		}
	}
}

// Density must decrease monotonically with radius within each layer and
// stay within physical Earth bounds everywhere.
func TestPREMPhysicalBounds(t *testing.T) {
	p := NewPREM()
	for r := 1000.0; r < PREMSurfaceRadius; r += 10000 {
		m := p.At(r)
		if m.Rho < 2500 || m.Rho > 13100 {
			t.Fatalf("r=%.0f: rho %.1f out of Earth range", r, m.Rho)
		}
		if m.Vp < 1400 || m.Vp > 13720 {
			t.Fatalf("r=%.0f: vp %.1f out of range", r, m.Vp)
		}
		if m.Vs < 0 || m.Vs > 7300 {
			t.Fatalf("r=%.0f: vs %.1f out of range", r, m.Vs)
		}
		if m.Kappa() <= 0 {
			t.Fatalf("r=%.0f: non-positive bulk modulus", r)
		}
		if m.Mu() < 0 {
			t.Fatalf("r=%.0f: negative shear modulus", r)
		}
	}
}

// The fluid outer core must be exactly the region between ICB and CMB.
func TestPREMFluidRegion(t *testing.T) {
	p := NewPREM()
	for r := 1000.0; r < PREMSurfaceRadius; r += 5000 {
		m := p.At(r)
		inOC := r >= PREMICB && r < PREMCMB
		if m.IsFluid() != inOC {
			t.Fatalf("r=%.0f: fluid=%v but in outer core=%v", r, m.IsFluid(), inOC)
		}
		if got := RegionOf(p, r); inOC && got != RegionOuterCore {
			t.Fatalf("r=%.0f: region %v", r, got)
		}
	}
}

// Material evaluation must be continuous inside each layer (no jumps
// except at the published discontinuities).
func TestPREMContinuityWithinLayers(t *testing.T) {
	p := NewPREM()
	disc := p.Discontinuities()
	isNearDisc := func(r float64) bool {
		for _, d := range disc {
			if math.Abs(r-d) < 2000 {
				return true
			}
		}
		return false
	}
	for r := 5000.0; r < PREMSurfaceRadius-5000; r += 1000 {
		if isNearDisc(r) || isNearDisc(r+1000) {
			continue
		}
		a, b := p.At(r), p.At(r+1000)
		if math.Abs(a.Vp-b.Vp) > 50 {
			t.Fatalf("vp jump of %.1f m/s at r=%.0f inside a layer", math.Abs(a.Vp-b.Vp), r)
		}
	}
}

func TestPREMDiscontinuitiesSortedWithinBall(t *testing.T) {
	p := NewPREM()
	d := p.Discontinuities()
	for i := range d {
		if d[i] <= 0 || d[i] >= PREMSurfaceRadius {
			t.Errorf("discontinuity %d at %g outside (0, surface)", i, d[i])
		}
		if i > 0 && d[i] <= d[i-1] {
			t.Errorf("discontinuities not ascending at %d", i)
		}
	}
}

func TestPREMQuality(t *testing.T) {
	p := NewPREM()
	if q := p.At(PREMICB / 2).Qmu; q != 84.6 {
		t.Errorf("inner core Qmu = %v want 84.6", q)
	}
	if q := p.At((PREMICB + PREMCMB) / 2).Qmu; q != 0 {
		t.Errorf("outer core Qmu = %v want 0 (fluid)", q)
	}
	if q := p.At((PREMCMB + PREMR670) / 2).Qmu; q != 312 {
		t.Errorf("lower mantle Qmu = %v want 312", q)
	}
	if q := p.At(PREMSurfaceRadius - 2000).Qmu; q != 600 {
		t.Errorf("crust Qmu = %v want 600", q)
	}
}

func TestPREMOcean(t *testing.T) {
	if d := NewPREM().OceanDepth(); math.Abs(d-3000) > 1 {
		t.Errorf("ocean depth %v want 3000", d)
	}
	if d := NewPREMNoOcean().OceanDepth(); d != 0 {
		t.Errorf("no-ocean depth %v want 0", d)
	}
	if NewPREM().Name() == NewPREMNoOcean().Name() {
		t.Error("ocean variants must have distinct names")
	}
}

// Moduli identities: Vp and Vs reconstruct from kappa, mu, rho.
func TestMaterialModuliRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		// Generate a physical material deterministically from seed.
		if seed < 0 {
			seed = -seed
		}
		r := float64(seed%100000) / 100000
		m := Material{Rho: 2600 + 10000*r, Vp: 2000 + 11000*r, Vs: 1000 + 6000*r}
		if m.Vp*m.Vp < 4.0/3.0*m.Vs*m.Vs {
			return true // unphysical draw, skip
		}
		vp := math.Sqrt((m.Kappa() + 4.0/3.0*m.Mu()) / m.Rho)
		vs := math.Sqrt(m.Mu() / m.Rho)
		return math.Abs(vp-m.Vp) < 1e-6*m.Vp && math.Abs(vs-m.Vs) < 1e-6*math.Max(m.Vs, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLambdaIdentity(t *testing.T) {
	m := Material{Rho: 3000, Vp: 8000, Vs: 4500}
	lambda := m.Lambda()
	want := m.Rho * (m.Vp*m.Vp - 2*m.Vs*m.Vs)
	if math.Abs(lambda-want) > 1e-3 {
		t.Errorf("lambda %v want %v", lambda, want)
	}
}

// Surface gravity must come out near 9.8 m/s^2 when integrating PREM
// density, and g(0) = 0.
func TestGravityProfilePREM(t *testing.T) {
	g := NewGravityProfile(NewPREM(), 2000)
	surf := g.At(PREMSurfaceRadius)
	if math.Abs(surf-9.81) > 0.15 {
		t.Errorf("surface gravity %.3f want ~9.81", surf)
	}
	if g.At(0) != 0 {
		t.Errorf("g(0) = %v want 0", g.At(0))
	}
	// PREM gravity is nearly constant (~10.6) through the lower mantle
	// and drops toward the center.
	gCMB := g.At(PREMCMB)
	if math.Abs(gCMB-10.68) > 0.3 {
		t.Errorf("g(CMB) = %.3f want ~10.68", gCMB)
	}
	if g.At(PREMICB/2) >= gCMB {
		t.Error("gravity should decrease toward the center below the CMB")
	}
	// Above the surface g decays as 1/r^2.
	if r2 := g.At(2 * PREMSurfaceRadius); math.Abs(r2-surf/4) > 0.05*surf {
		t.Errorf("far-field gravity %.3f want ~%.3f", r2, surf/4)
	}
}

func TestGravityMonotoneNearSurfaceMass(t *testing.T) {
	// For a homogeneous ball g grows linearly with radius.
	h := NewHomogeneous(1000e3, Material{Rho: 5000, Vp: 8000, Vs: 4500})
	g := NewGravityProfile(h, 500)
	gHalf, gFull := g.At(500e3), g.At(1000e3)
	if math.Abs(gHalf*2-gFull) > 0.01*gFull {
		t.Errorf("homogeneous ball gravity not linear: g(R/2)=%v g(R)=%v", gHalf, gFull)
	}
}

func TestHomogeneousModel(t *testing.T) {
	mat := Material{Rho: 3000, Vp: 8000, Vs: 4500, Qmu: 300, Qkappa: 57823}
	h := NewHomogeneous(6371e3, mat)
	if h.At(1e6) != mat || h.At(6e6) != mat {
		t.Error("homogeneous model not uniform")
	}
	if len(h.Discontinuities()) != 0 {
		t.Error("solid ball should have no discontinuities")
	}
	// Carve a fluid shell and check region classification.
	h.ICBRadius, h.CMBRadius = 1e6, 3e6
	if !h.At(2e6).IsFluid() {
		t.Error("fluid shell not fluid")
	}
	if h.At(0.5e6).IsFluid() || h.At(4e6).IsFluid() {
		t.Error("solid regions became fluid")
	}
	if n := len(h.Discontinuities()); n != 2 {
		t.Errorf("expected 2 discontinuities, got %d", n)
	}
}

func TestRegionString(t *testing.T) {
	if RegionCrustMantle.String() != "crust_mantle" ||
		RegionOuterCore.String() != "outer_core" ||
		RegionInnerCore.String() != "inner_core" {
		t.Error("region names changed")
	}
	if Region(99).String() == "" {
		t.Error("unknown region should still format")
	}
}

func BenchmarkPREMAt(b *testing.B) {
	p := NewPREM()
	for i := 0; i < b.N; i++ {
		_ = p.At(float64(i%6371) * 1000)
	}
}

func BenchmarkGravityProfileBuild(b *testing.B) {
	p := NewPREM()
	for i := 0; i < b.N; i++ {
		_ = NewGravityProfile(p, 500)
	}
}

// One name table: specfem -model and the daemon resolve the same three
// names, and any other name is an error that lists them.
func TestByName(t *testing.T) {
	for name, want := range map[string]Model{"prem": NewPREM(), "prem_noocean": NewPREMNoOcean(), "earthlike": EarthLike()} {
		if got, err := ByName(name); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ByName("homogeneous"); err == nil || !strings.Contains(err.Error(), "earthlike") {
		t.Errorf("ByName(homogeneous): %v, want an error listing earthlike", err)
	}
}
