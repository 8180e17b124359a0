package cubedsphere

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) {
		t.Error("Add")
	}
	if a.Sub(b) != (Vec3{-3, -3, -3}) {
		t.Error("Sub")
	}
	if a.Scale(2) != (Vec3{2, 4, 6}) {
		t.Error("Scale")
	}
	if a.Dot(b) != 32 {
		t.Error("Dot")
	}
	if a.Cross(b) != (Vec3{-3, 6, -3}) {
		t.Error("Cross")
	}
	if math.Abs(Vec3{3, 4, 0}.Norm()-5) > 1e-15 {
		t.Error("Norm")
	}
	if (Vec3{}).Normalize() != (Vec3{}) {
		t.Error("Normalize of zero vector should be zero")
	}
	if (Vec3{-7, 2, 5}).MaxAbs() != 7 {
		t.Error("MaxAbs")
	}
}

// Direction must return unit vectors on the correct face, and the face
// center maps to the face normal.
func TestDirectionBasics(t *testing.T) {
	for f := Face(0); f < NumFaces; f++ {
		d := Direction(f, 0, 0)
		n, _, _ := f.Triad()
		if d.Sub(n).Norm() > 1e-14 {
			t.Errorf("face %v center: %v want %v", f, d, n)
		}
		for _, xi := range []float64{-XiMax, -0.3, 0, 0.4, XiMax} {
			for _, eta := range []float64{-XiMax, 0.2, XiMax} {
				d := Direction(f, xi, eta)
				if math.Abs(d.Norm()-1) > 1e-14 {
					t.Fatalf("face %v (%g,%g): |d| = %v", f, xi, eta, d.Norm())
				}
				if got := FaceOf(d); got != f {
					// Chunk-edge points may tie; only interior must match.
					if math.Abs(xi) < XiMax-1e-9 && math.Abs(eta) < XiMax-1e-9 {
						t.Fatalf("face %v (%g,%g): classified as %v", f, xi, eta, got)
					}
				}
			}
		}
	}
}

// Property: XiEta inverts Direction on every face.
func TestXiEtaInvertsDirection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		face := Face(rng.Intn(NumFaces))
		xi := (rng.Float64()*2 - 1) * XiMax
		eta := (rng.Float64()*2 - 1) * XiMax
		d := Direction(face, xi, eta)
		gx, ge := XiEta(face, d)
		return math.Abs(gx-xi) < 1e-12 && math.Abs(ge-eta) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: every direction on the unit sphere belongs to exactly one
// face and its (xi, eta) are within the chunk bounds.
func TestSphereCoverage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Normalize()
		if d.Norm() == 0 {
			return true
		}
		face := FaceOf(d)
		xi, eta := XiEta(face, d)
		return xi >= -XiMax-1e-9 && xi <= XiMax+1e-9 &&
			eta >= -XiMax-1e-9 && eta <= XiMax+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestTanGrid(t *testing.T) {
	g := TanGrid(8)
	if len(g) != 9 {
		t.Fatalf("len %d", len(g))
	}
	if g[0] != -1 || g[8] != 1 || g[4] != 0 {
		t.Errorf("pinned values wrong: %v", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatal("grid not ascending")
		}
	}
	// Symmetry.
	for i := range g {
		if math.Abs(g[i]+g[len(g)-1-i]) > 1e-15 {
			t.Errorf("grid not symmetric at %d", i)
		}
	}
}

// The spherified cube surface must coincide with the gnomonic chunk
// bottom grid — this is the conformity property that makes the central
// cube mesh compatible with the six chunks.
func TestCubeSurfaceMatchesChunkBottom(t *testing.T) {
	const nex = 8
	const rcc = 1000.0
	g := TanGrid(nex)
	// Face +Z of the cube: c = 1 plane.
	for i := 0; i <= nex; i++ {
		for j := 0; j <= nex; j++ {
			q := Vec3{g[i], g[j], 1}
			pc := CubePoint(q, rcc)
			pd := DirectionTan(FacePZ, g[i], g[j]).Scale(rcc)
			if pc.Sub(pd).Norm() > 1e-9*rcc {
				t.Fatalf("surface mismatch at (%d,%d): cube %v vs shell %v", i, j, pc, pd)
			}
		}
	}
	// Face -X of the cube: a = -1 plane. With the -X triad (u = z,
	// v = y) the cube point (-1, g[j], g[k]) corresponds to tangent
	// coordinates (a, b) = (g[k], g[j]).
	for j := 0; j <= nex; j++ {
		for k := 0; k <= nex; k++ {
			q := Vec3{-1, g[j], g[k]}
			pc := CubePoint(q, rcc)
			pd := DirectionTan(FaceNX, g[k], g[j]).Scale(rcc)
			if pc.Sub(pd).Norm() > 1e-9*rcc {
				t.Fatalf("-X surface mismatch at (%d,%d)", j, k)
			}
		}
	}
	// Every face triad is right-handed: u x v = n exactly.
	for f := Face(0); f < NumFaces; f++ {
		n, u, v := f.Triad()
		if u.Cross(v) != n {
			t.Errorf("face %v triad not right-handed", f)
		}
	}
}

func TestCubePointCenterAndRadius(t *testing.T) {
	if CubePoint(Vec3{}, 500) != (Vec3{}) {
		t.Error("center must map to origin")
	}
	// All surface points lie exactly on the sphere of radius rcc.
	const rcc = 1221.5
	g := TanGrid(6)
	for _, a := range g {
		for _, b := range g {
			for _, face := range []Vec3{{1, a, b}, {-1, a, b}, {a, 1, b}, {a, b, 1}, {a, b, -1}, {a, -1, b}} {
				p := CubePoint(face, rcc)
				if math.Abs(p.Norm()-rcc) > 1e-9*rcc {
					t.Fatalf("surface point %v has radius %v want %v", face, p.Norm(), rcc)
				}
			}
		}
	}
	// Interior points stay strictly inside.
	if CubePoint(Vec3{0.5, 0.3, -0.2}, rcc).Norm() >= rcc {
		t.Error("interior point escaped the sphere")
	}
}

// The cube mapping must be injective and orientation-preserving: check a
// positive numeric Jacobian determinant on random interior points.
func TestCubePointJacobianPositive(t *testing.T) {
	const h = 1e-6
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		q := Vec3{rng.Float64()*1.9 - 0.95, rng.Float64()*1.9 - 0.95, rng.Float64()*1.9 - 0.95}
		var jac [3][3]float64
		for c := 0; c < 3; c++ {
			qp, qm := q, q
			qp[c] += h
			qm[c] -= h
			pp := CubePoint(qp, 1)
			pm := CubePoint(qm, 1)
			for r := 0; r < 3; r++ {
				jac[r][c] = (pp[r] - pm[r]) / (2 * h)
			}
		}
		det := jac[0][0]*(jac[1][1]*jac[2][2]-jac[1][2]*jac[2][1]) -
			jac[0][1]*(jac[1][0]*jac[2][2]-jac[1][2]*jac[2][0]) +
			jac[0][2]*(jac[1][0]*jac[2][1]-jac[1][1]*jac[2][0])
		if det <= 0 {
			t.Fatalf("non-positive Jacobian %g at %v", det, q)
		}
	}
}

func TestLatLonRoundTrip(t *testing.T) {
	cases := []struct{ lat, lon float64 }{
		{0, 0}, {90, 0}, {-90, 0}, {45, 45}, {-33.5, -70.6}, {35.7, 139.7},
	}
	for _, c := range cases {
		d := LatLon(c.lat, c.lon)
		if math.Abs(d.Norm()-1) > 1e-14 {
			t.Fatalf("LatLon(%v,%v) not unit", c.lat, c.lon)
		}
		lat, lon := ToLatLon(d)
		if math.Abs(lat-c.lat) > 1e-10 {
			t.Errorf("lat %v -> %v", c.lat, lat)
		}
		// Longitude undefined at the poles.
		if math.Abs(c.lat) < 89.9 && math.Abs(lon-c.lon) > 1e-10 {
			t.Errorf("lon %v -> %v", c.lon, lon)
		}
	}
}

func TestFaceString(t *testing.T) {
	names := map[Face]string{FacePX: "+X", FaceNX: "-X", FacePY: "+Y", FaceNY: "-Y", FacePZ: "+Z", FaceNZ: "-Z"}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("face %d: %q want %q", int(f), f.String(), want)
		}
	}
}

func TestDecompValidation(t *testing.T) {
	if _, err := NewDecomp(16, 0); err == nil {
		t.Error("NPROC_XI=0 accepted")
	}
	if _, err := NewDecomp(1, 1); err == nil {
		t.Error("NEX_XI=1 accepted")
	}
	if _, err := NewDecomp(16, 3); err == nil {
		t.Error("non-divisible NEX accepted")
	}
	if _, err := NewDecomp(15, 5); err == nil {
		t.Error("odd NEX accepted (central cube needs even)")
	}
	d, err := NewDecomp(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRanks() != 24 {
		t.Errorf("24 ranks expected, got %d", d.NumRanks())
	}
	if n := d.NexPerSliceAt(d.NexXi); n != 8 {
		t.Errorf("8 elements per slice expected, got %d", n)
	}
}

// Rank addressing must be a bijection between ranks and slices.
func TestRankSliceBijection(t *testing.T) {
	d, _ := NewDecomp(24, 3)
	seen := make(map[int]bool)
	for f := Face(0); f < NumFaces; f++ {
		for pe := 0; pe < d.NProcXi; pe++ {
			for px := 0; px < d.NProcXi; px++ {
				s := Slice{Chunk: f, PXi: px, PEta: pe}
				r := d.RankOf(s)
				if r < 0 || r >= d.NumRanks() {
					t.Fatalf("rank %d out of range", r)
				}
				if seen[r] {
					t.Fatalf("rank %d assigned twice", r)
				}
				seen[r] = true
				if got := d.SliceOf(r); got != s {
					t.Fatalf("SliceOf(RankOf(%v)) = %v", s, got)
				}
			}
		}
	}
	if len(seen) != d.NumRanks() {
		t.Errorf("only %d of %d ranks used", len(seen), d.NumRanks())
	}
}

func TestElemRangePartition(t *testing.T) {
	d, _ := NewDecomp(24, 3)
	covered := 0
	for p := 0; p < d.NProcXi; p++ {
		lo, hi := d.ElemRangeAt(d.NexXi, p)
		covered += hi - lo
		for e := lo; e < hi; e++ {
			if d.SliceOfElemAt(d.NexXi, e) != p {
				t.Fatalf("element %d not mapped back to slice %d", e, p)
			}
		}
	}
	if covered != d.NexXi {
		t.Errorf("ranges cover %d elements, want %d", covered, d.NexXi)
	}
}

// Every central-cube cell must have exactly one owner, owners must be
// valid ranks, and the load must be reasonably balanced across chunks.
func TestCentralCubeOwnership(t *testing.T) {
	d, _ := NewDecomp(8, 2)
	perRank := make(map[int]int)
	total := 0
	for ci := 0; ci < d.NexXi; ci++ {
		for cj := 0; cj < d.NexXi; cj++ {
			for ck := 0; ck < d.NexXi; ck++ {
				r := d.CentralCubeOwnerAt(d.NexXi, ci, cj, ck)
				if r < 0 || r >= d.NumRanks() {
					t.Fatalf("cell (%d,%d,%d): bad owner %d", ci, cj, ck, r)
				}
				perRank[r]++
				total++
			}
		}
	}
	if total != d.NexXi*d.NexXi*d.NexXi {
		t.Fatalf("visited %d cells", total)
	}
	// Sector assignment: all six chunks must receive cube cells.
	chunkLoad := make(map[Face]int)
	for r, nc := range perRank {
		chunkLoad[d.SliceOf(r).Chunk] += nc
	}
	for f := Face(0); f < NumFaces; f++ {
		if chunkLoad[f] == 0 {
			t.Errorf("chunk %v received no central-cube cells", f)
		}
	}
	// Dominant-axis sectoring is symmetric: chunk loads within 2x.
	minL, maxL := total, 0
	for _, l := range chunkLoad {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	if maxL > 2*minL {
		t.Errorf("central cube imbalance across chunks: min %d max %d", minL, maxL)
	}
}

// A cube surface cell must be owned by the rank whose shell slice is
// directly above it (keeps solid-solid coupling local).
func TestCentralCubeSurfaceLocality(t *testing.T) {
	d, _ := NewDecomp(8, 2)
	g := TanGrid(d.NexXi)
	for cj := 0; cj < d.NexXi; cj++ {
		for ck := 0; ck < d.NexXi; ck++ {
			// Cell touching the +X cube face.
			r := d.CentralCubeOwnerAt(d.NexXi, d.NexXi-1, cj, ck)
			s := d.SliceOf(r)
			// Its center direction must be on chunk +X within the
			// same slice's (xi, eta) rectangle.
			if s.Chunk != FacePX {
				// Cells near cube edges may legitimately sector to an
				// adjacent face; only clearly interior face cells must
				// match.
				cjC := 0.5 * (g[cj] + g[cj+1])
				ckC := 0.5 * (g[ck] + g[ck+1])
				if math.Abs(cjC) < 0.5 && math.Abs(ckC) < 0.5 {
					t.Fatalf("interior +X face cell (%d,%d) owned by chunk %v", cj, ck, s.Chunk)
				}
			}
		}
	}
}

func BenchmarkDirection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Direction(FacePZ, 0.3, -0.2)
	}
}

func BenchmarkCubePoint(b *testing.B) {
	q := Vec3{0.4, -0.7, 0.2}
	for i := 0; i < b.N; i++ {
		_ = CubePoint(q, 1221.5e3)
	}
}
