package mesh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"specglobe/internal/earthmodel"
)

func TestKeyOfDistinguishesBits(t *testing.T) {
	a := KeyOf(1, 2, 3)
	b := KeyOf(1, 2, 3)
	if a != b {
		t.Error("identical coordinates produced different keys")
	}
	if KeyOf(1, 2, 3) == KeyOf(1, 2, 3.0000000001) {
		t.Error("different coordinates collided")
	}
	// +0 and -0 have different bit patterns and are (intentionally)
	// different keys: the meshers must produce consistent signed zeros.
	if KeyOf(0, 0, 0) == KeyOf(math.Copysign(0, -1), 0, 0) {
		t.Error("signed zeros collided")
	}
}

func TestPointIndexer(t *testing.T) {
	pi := NewPointIndexer()
	a := pi.Index(1, 2, 3)
	b := pi.Index(4, 5, 6)
	c := pi.Index(1, 2, 3) // duplicate
	if a == b {
		t.Error("distinct points shared an index")
	}
	if a != c {
		t.Error("duplicate point got a fresh index")
	}
	if pi.Len() != 2 {
		t.Errorf("Len = %d want 2", pi.Len())
	}
	pts := pi.Points()
	if pts[a] != [3]float64{1, 2, 3} || pts[b] != [3]float64{4, 5, 6} {
		t.Error("points stored wrong")
	}

	// A reserved indexer numbers unkeyed points in the same first-sight
	// sequence and hands over no spare capacity, even when the
	// reservation was an over-estimate.
	pi = NewPointIndexer()
	pi.Reserve(8, 1)
	a = pi.Index(1, 2, 3)
	d := pi.Add(7, 8, 9)
	c = pi.Index(1, 2, 3)
	if a != 0 || d != 1 || c != a || pi.Len() != 2 {
		t.Errorf("reserved indexer: indices %d %d %d, Len %d", a, d, c, pi.Len())
	}
	if pts = pi.Points(); len(pts) != 2 || cap(pts) != 2 || pts[d] != [3]float64{7, 8, 9} {
		t.Errorf("reserved indexer: points %v with capacity %d", pts, cap(pts))
	}
}

// Property: indices are stable and dense regardless of insertion mix.
func TestPointIndexerProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pi := NewPointIndexer()
		coords := make([][3]float64, 20)
		for i := range coords {
			coords[i] = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		first := make(map[[3]float64]int32)
		for trial := 0; trial < 100; trial++ {
			c := coords[rng.Intn(len(coords))]
			id := pi.Index(c[0], c[1], c[2])
			if prev, ok := first[c]; ok {
				if prev != id {
					return false
				}
			} else {
				first[c] = id
			}
		}
		return pi.Len() == len(first)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIdx(t *testing.T) {
	if Idx(0, 0, 0, 0) != 0 {
		t.Error("origin index")
	}
	if Idx(0, 4, 4, 4) != NGLL3-1 {
		t.Error("last point of element 0")
	}
	if Idx(2, 0, 0, 0) != 2*NGLL3 {
		t.Error("element stride")
	}
	if Idx(0, 1, 0, 0)+NGLL != Idx(0, 1, 1, 0) {
		t.Error("j stride")
	}
}

// makeUnitRegion builds a tiny one-element region with constant unit
// Jacobian and uniform material, used by validation tests.
func makeUnitRegion() *Region {
	r := NewRegion(earthmodel.RegionCrustMantle, 1)
	pi := NewPointIndexer()
	for k := 0; k < NGLL; k++ {
		for j := 0; j < NGLL; j++ {
			for i := 0; i < NGLL; i++ {
				ip := Idx(0, i, j, k)
				r.Ibool[ip] = pi.Index(float64(i), float64(j), float64(k))
				r.Xix[ip], r.Etay[ip], r.Gamz[ip] = 1, 1, 1
				r.Jac[ip] = 1
				r.JacW[ip] = 1
				r.Rho[ip] = 1000
				r.Kappa[ip] = 1e9
				r.Mu[ip] = 1e9
			}
		}
	}
	r.NGlob = pi.Len()
	r.Pts = pi.Points()
	r.Qmu[0] = 600
	r.Qkappa[0] = 57823
	return r
}

func TestValidateCatchesProblems(t *testing.T) {
	good := makeUnitRegion()
	if err := good.Validate(); err != nil {
		t.Fatalf("good region rejected: %v", err)
	}
	bad := makeUnitRegion()
	bad.Ibool[7] = int32(bad.NGlob) // out of range
	if bad.Validate() == nil {
		t.Error("out-of-range ibool accepted")
	}
	bad = makeUnitRegion()
	bad.JacW[3] = -1
	if bad.Validate() == nil {
		t.Error("negative JacW accepted")
	}
	bad = makeUnitRegion()
	bad.Rho[10] = 0
	if bad.Validate() == nil {
		t.Error("zero density accepted")
	}
	bad = makeUnitRegion()
	bad.Mu[0] = -5
	if bad.Validate() == nil {
		t.Error("negative mu accepted")
	}
	fluid := makeUnitRegion()
	fluid.Kind = earthmodel.RegionOuterCore
	if fluid.Validate() == nil {
		t.Error("fluid region with shear accepted")
	}
}

func TestAssembleMassLocal(t *testing.T) {
	r := makeUnitRegion()
	r.AssembleMassLocal()
	// Total mass must equal sum(rho * JacW) = 1000 * 125.
	total := 0.0
	for _, m := range r.Mass {
		total += float64(m)
	}
	if math.Abs(total-1000*float64(NGLL3)) > 1e-3 {
		t.Errorf("total mass %v", total)
	}
	// Fluid mass uses 1/kappa.
	f := makeUnitRegion()
	f.Kind = earthmodel.RegionOuterCore
	for i := range f.Mu {
		f.Mu[i] = 0
	}
	f.AssembleMassLocal()
	total = 0
	for _, m := range f.Mass {
		total += float64(m)
	}
	if math.Abs(total-float64(NGLL3)/1e9) > 1e-12 {
		t.Errorf("fluid mass %v", total)
	}
}

func TestWeights3DPartitionOfUnity(t *testing.T) {
	f := func(a, b, c float64) bool {
		ref := [3]float64{math.Mod(a, 1), math.Mod(b, 1), math.Mod(c, 1)}
		w := Weights3D(ref)
		s := 0.0
		for _, v := range w {
			s += v
		}
		return math.Abs(s-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInterpolateGeometryAtNodes(t *testing.T) {
	r := makeUnitRegion()
	// At reference (-1,-1,-1) the interpolant must return node (0,0,0).
	got := InterpolateGeometry(r, 0, [3]float64{-1, -1, -1})
	if got != [3]float64{0, 0, 0} {
		t.Errorf("corner: %v", got)
	}
	got = InterpolateGeometry(r, 0, [3]float64{1, 1, 1})
	if got != [3]float64{4, 4, 4} {
		t.Errorf("far corner: %v", got)
	}
}

func TestInterpolateFields(t *testing.T) {
	r := makeUnitRegion()
	field := make([]float32, r.NGlob)
	for i, p := range r.Pts {
		field[i] = float32(2*p[0] - p[1]) // linear in position
	}
	// GLL points of the unit region are at integer positions; pick the
	// center reference point, which maps to (2,2,2).
	got := InterpolateField(r, field, 0, [3]float64{0, 0, 0})
	if math.Abs(got-2) > 1e-5 {
		t.Errorf("scalar interp %v want 2", got)
	}
	vx := make([]float32, r.NGlob)
	vy := make([]float32, r.NGlob)
	vz := make([]float32, r.NGlob)
	for i, p := range r.Pts {
		vx[i] = float32(p[0])
		vy[i] = float32(p[1])
		vz[i] = float32(p[2])
	}
	v := InterpolateVectorField(r, vx, vy, vz, 0, [3]float64{0, 0, 0})
	for c := 0; c < 3; c++ {
		if math.Abs(v[c]-2) > 1e-5 {
			t.Errorf("vector comp %d: %v", c, v[c])
		}
	}
}

func TestBuildHaloErrors(t *testing.T) {
	l := &Local{Rank: 1} // wrong: index 0 must hold rank 0
	if _, err := BuildHalo([]*Local{l}); err == nil {
		t.Error("misordered locals accepted")
	}
}

func TestBuildHaloSharedPoints(t *testing.T) {
	// Two ranks of one unit-cube element each, sharing the face x = 1.
	mk := func(rank int, x0 float64) *Local {
		r := NewRegion(earthmodel.RegionCrustMantle, 1)
		pi := NewPointIndexer()
		for k := 0; k < NGLL; k++ {
			for j := 0; j < NGLL; j++ {
				for i := 0; i < NGLL; i++ {
					r.Ibool[Idx(0, i, j, k)] = pi.Index(x0+float64(i)/4, float64(j)/4, float64(k)/4)
				}
			}
		}
		r.NGlob, r.Pts = pi.Len(), pi.Points()
		l := &Local{Rank: rank}
		l.Regions[earthmodel.RegionCrustMantle] = r
		l.Regions[earthmodel.RegionOuterCore] = NewRegion(earthmodel.RegionOuterCore, 0)
		l.Regions[earthmodel.RegionInnerCore] = NewRegion(earthmodel.RegionInnerCore, 0)
		return l
	}
	a, b := mk(0, 0), mk(1, 1)
	plans, err := BuildHalo([]*Local{a, b})
	if err != nil {
		t.Fatal(err)
	}
	ea := plans[0].Edges[earthmodel.RegionCrustMantle]
	eb := plans[1].Edges[earthmodel.RegionCrustMantle]
	if len(ea) != 1 || len(eb) != 1 {
		t.Fatalf("edges: %d and %d", len(ea), len(eb))
	}
	if ea[0].Peer != 1 || eb[0].Peer != 0 {
		t.Error("wrong peers")
	}
	if len(ea[0].Idx) != NGLL2 || len(eb[0].Idx) != NGLL2 {
		t.Fatalf("shared points: %d and %d, want %d", len(ea[0].Idx), len(eb[0].Idx), NGLL2)
	}
	pa, pb := a.Regions[earthmodel.RegionCrustMantle].Pts, b.Regions[earthmodel.RegionCrustMantle].Pts
	for q := range ea[0].Idx {
		if p := pa[ea[0].Idx[q]]; p != pb[eb[0].Idx[q]] || p[0] != 1 {
			t.Errorf("slot %d pairs %v with %v", q, p, pb[eb[0].Idx[q]])
		}
	}
	if plans[0].NeighborCount() != 1 || plans[0].BoundaryPoints() != NGLL2 {
		t.Error("plan accounting wrong")
	}
}

func TestComputeLoadStats(t *testing.T) {
	mk := func(rank, nspec int) *Local {
		l := &Local{Rank: rank}
		l.Regions[0] = NewRegion(earthmodel.RegionCrustMantle, nspec)
		return l
	}
	s := ComputeLoadStats([]*Local{mk(0, 10), mk(1, 12), mk(2, 8)})
	if s.MinElems != 8 || s.MaxElems != 12 {
		t.Errorf("min/max %d/%d", s.MinElems, s.MaxElems)
	}
	if math.Abs(s.MeanElems-10) > 1e-12 {
		t.Errorf("mean %v", s.MeanElems)
	}
	if math.Abs(s.Imbalance-1.2) > 1e-12 {
		t.Errorf("imbalance %v", s.Imbalance)
	}
	if z := ComputeLoadStats(nil); z.MaxElems != 0 {
		t.Error("empty stats")
	}
}

// Rate-weighted cost balance: a rank whose single element bins to rate
// 4 costs 1/4 of a rate-1 rank per finest step, so an element-balanced
// two-rank partition shows CostImbalance max/mean = 1/0.625 = 1.6.
func TestComputeLoadStatsRated(t *testing.T) {
	mk := func(rank int, soften float64) *Local {
		l := &Local{Rank: rank}
		r := makeUnitRegion()
		for p := range r.Kappa {
			r.Kappa[p] = float32(float64(r.Kappa[p]) / soften)
			r.Mu[p] = float32(float64(r.Mu[p]) / soften)
		}
		l.Regions[0] = r
		return l
	}
	fast := mk(0, 1)  // stiff: element dt = d0
	slow := mk(1, 16) // velocity / 4: element dt = 4*d0 -> rate 4
	d0 := fast.Regions[0].ElementDt(0, 0.5)
	s := ComputeLoadStatsRated([]*Local{fast, slow}, d0, 0.5, 4)
	if s.Imbalance != 1 {
		t.Errorf("element imbalance %v, want 1 (one element per rank)", s.Imbalance)
	}
	if math.Abs(s.MinCost-0.25) > 1e-12 || math.Abs(s.MaxCost-1) > 1e-12 {
		t.Errorf("cost min/max %v/%v, want 0.25/1", s.MinCost, s.MaxCost)
	}
	if math.Abs(s.CostImbalance-1.6) > 1e-12 {
		t.Errorf("cost imbalance %v, want 1.6", s.CostImbalance)
	}
	// With LTS off (maxRate 1) every element costs 1: cost imbalance
	// collapses to the element imbalance.
	u := ComputeLoadStatsRated([]*Local{fast, slow}, d0, 0.5, 1)
	if u.CostImbalance != u.Imbalance {
		t.Errorf("maxRate 1: cost imbalance %v != element imbalance %v", u.CostImbalance, u.Imbalance)
	}
	if z := ComputeLoadStatsRated(nil, d0, 0.5, 4); z.MaxCost != 0 {
		t.Error("empty rated stats")
	}
}

func TestMinGLLSpacingAndStableDt(t *testing.T) {
	r := makeUnitRegion()
	// Unit region nodes at integer coordinates 0..4 (spacing 1 along
	// edges because points are placed at i,j,k integers).
	if d := r.MinGLLSpacing(); math.Abs(d-1) > 1e-12 {
		t.Errorf("min spacing %v", d)
	}
	vmax := r.MaxVelocity()
	wantV := math.Sqrt((1e9 + 4.0/3.0*1e9) / 1000)
	if math.Abs(vmax-wantV) > 1 {
		t.Errorf("max velocity %v want %v", vmax, wantV)
	}
	dt := r.StableDt(0.5)
	if math.Abs(dt-0.5/wantV) > 1e-9 {
		t.Errorf("dt %v", dt)
	}
	empty := NewRegion(earthmodel.RegionInnerCore, 0)
	if !math.IsInf(empty.StableDt(0.5), 1) {
		t.Error("empty region dt should be +inf")
	}
}
