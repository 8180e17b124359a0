package mesh

import (
	"math"
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
	r.NGlob, r.Pts = NGLL3, make([][3]float64, NGLL3)
	for k := 0; k < NGLL; k++ {
		for j := 0; j < NGLL; j++ {
			for i := 0; i < NGLL; i++ {
				ip := Idx(0, i, j, k)
				r.Ibool[ip] = int32(ip)
				r.Pts[ip] = [3]float64{float64(i), float64(j), float64(k)}
				r.Xix[ip], r.Etay[ip], r.Gamz[ip] = 1, 1, 1
				r.Jac[ip] = 1
				r.JacW[ip] = 1
				r.Rho[ip] = 1000
				r.Kappa[ip] = 1e9
				r.Mu[ip] = 1e9
			}
		}
	}
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

// TestWeights3DOneHotAtNodes pins what a station snapped to a GLL node
// records: at each of the NGLL3 node refs the weights are exactly 1 at
// that node and ±0 at every other, so the receiver reads the node's
// displacement bit for bit. Each factor of the node's own weight is
// a/a = 1; every other weight has a factor (x - x_k) = 0.
func TestWeights3DOneHotAtNodes(t *testing.T) {
	for k := 0; k < NGLL; k++ {
		for j := 0; j < NGLL; j++ {
			for i := 0; i < NGLL; i++ {
				node := i + NGLL*j + NGLL2*k
				w := Weights3D([3]float64{gllPoints[i], gllPoints[j], gllPoints[k]})
				for p, v := range w {
					if (p == node && v != 1) || (p != node && v != 0) {
						t.Fatalf("node %d: weight %d is %v, want one-hot", node, p, v)
					}
				}
			}
		}
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
	// The centre is an interior GLL node: (2,2,2) up to rounding.
	got = InterpolateGeometry(r, 0, [3]float64{0, 0, 0})
	for c := 0; c < 3; c++ {
		if math.Abs(got[c]-2) > 1e-12 {
			t.Errorf("centre comp %d: %v", c, got[c])
		}
	}
}

// TestInterpolateFields checks Weights3D applied through Ibool to
// per-global-point float32 fields, the way receivers record
// displacement: a field linear in position is reproduced exactly.
func TestInterpolateFields(t *testing.T) {
	r := makeUnitRegion()
	interp := func(field []float32, ref [3]float64) float64 {
		w := Weights3D(ref)
		out := 0.0
		for p := 0; p < NGLL3; p++ {
			out += w[p] * float64(field[r.Ibool[p]])
		}
		return out
	}
	field := make([]float32, r.NGlob)
	for i, p := range r.Pts {
		field[i] = float32(2*p[0] - p[1]) // linear in position
	}
	// GLL points of the unit region are at integer positions; the
	// center reference point maps to (2,2,2).
	if got := interp(field, [3]float64{0, 0, 0}); math.Abs(got-2) > 1e-5 {
		t.Errorf("scalar interp %v want 2", got)
	}
	var v [3][]float32
	for c := range v {
		v[c] = make([]float32, r.NGlob)
		for i, p := range r.Pts {
			v[c][i] = float32(p[c])
		}
	}
	for c := range v {
		if got := interp(v[c], [3]float64{0, 0, 0}); math.Abs(got-2) > 1e-5 {
			t.Errorf("vector comp %d: %v", c, got)
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
		r.NGlob, r.Pts = NGLL3, make([][3]float64, NGLL3)
		for k := 0; k < NGLL; k++ {
			for j := 0; j < NGLL; j++ {
				for i := 0; i < NGLL; i++ {
					ip := Idx(0, i, j, k)
					r.Ibool[ip] = int32(ip)
					r.Pts[ip] = [3]float64{x0 + float64(i)/4, float64(j) / 4, float64(k) / 4}
				}
			}
		}
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

// The unit region's audit has a closed form: nodes sit at the integers
// 0..4, so every GLL interval and the mean spacing of every grid line
// are 1, and the uniform material fixes both wave speeds.
func TestElementAuditAndStableDt(t *testing.T) {
	r := makeUnitRegion()
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(r.Audit) != 1 {
		t.Fatalf("%d element audits for 1 element", len(r.Audit))
	}
	a := r.Audit[0]
	if a.MinSpacing != 1 || a.HMax != 1 {
		t.Errorf("min spacing %v, coarsest mean spacing %v; want 1, 1", a.MinSpacing, a.HMax)
	}
	wantV := math.Sqrt((1e9 + 4.0/3.0*1e9) / 1000)
	if math.Abs(a.MaxVp-wantV) > 1 {
		t.Errorf("max velocity %v want %v", a.MaxVp, wantV)
	}
	if a.VMin != 1000 {
		t.Errorf("slowest wave %v, want Vs = sqrt(mu/rho) = 1000", a.VMin)
	}
	dt := r.StableDt(0.5)
	if math.Abs(dt-0.5/wantV) > 1e-9 {
		t.Errorf("dt %v", dt)
	}
	if e := r.ElementDt(0, 0.5); e != dt {
		t.Errorf("one-element region: element dt %v != region dt %v", e, dt)
	}
	if got := StableDt([]*Local{{Regions: [3]*Region{r}}}, 0.5); got != dt {
		t.Errorf("mesh-wide dt %v != region dt %v", got, dt)
	}
	empty := NewRegion(earthmodel.RegionInnerCore, 0)
	if !math.IsInf(empty.StableDt(0.5), 1) {
		t.Error("empty region dt should be +inf")
	}
	defer func() {
		if recover() == nil {
			t.Error("an unaudited region answered ElementDt")
		}
	}()
	makeUnitRegion().ElementDt(0, 0.5)
}
