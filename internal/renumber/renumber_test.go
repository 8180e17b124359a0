package renumber

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"specglobe/internal/boxmesh"
	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

var testMat = earthmodel.Material{Rho: 2700, Vp: 8000, Vs: 4500, Qmu: 600, Qkappa: 57823}

func buildRegion(t testing.TB, n int) *mesh.Region {
	t.Helper()
	b, err := boxmesh.Build(boxmesh.Config{
		Nx: n, Ny: n, Nz: n, Lx: 1e4, Ly: 1e4, Lz: 1e4, NRanks: 1, Mat: testMat,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.Locals[0].Regions[earthmodel.RegionCrustMantle]
}

func TestElementAdjacency(t *testing.T) {
	r := buildRegion(t, 3) // 27 elements
	adj := ElementAdjacency(r)
	if len(adj) != 27 {
		t.Fatalf("adjacency for %d elements", len(adj))
	}
	// The center element of a 3x3x3 box touches all 26 others.
	center := (1*3+1)*3 + 1
	if len(adj[center]) != 26 {
		t.Errorf("center element has %d neighbors, want 26", len(adj[center]))
	}
	// A corner element touches 7 others.
	if len(adj[0]) != 7 {
		t.Errorf("corner element has %d neighbors, want 7", len(adj[0]))
	}
	// Symmetry.
	for v := range adj {
		for _, w := range adj[v] {
			found := false
			for _, x := range adj[w] {
				if int(x) == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d -> %d", v, w)
			}
		}
	}
}

func TestCuthillMcKeeIsPermutation(t *testing.T) {
	r := buildRegion(t, 4)
	adj := ElementAdjacency(r)
	perm := CuthillMcKee(adj)
	if !IsPermutation(perm, r.NSpec) {
		t.Fatal("CM order is not a permutation")
	}
	ml := MultilevelCuthillMcKee(adj, 16)
	if !IsPermutation(ml, r.NSpec) {
		t.Fatal("multilevel CM order is not a permutation")
	}
}

// RCM must not increase the bandwidth relative to a random ordering,
// and should reduce it substantially for a structured mesh.
func TestCuthillMcKeeReducesBandwidth(t *testing.T) {
	r := buildRegion(t, 4)
	adj := ElementAdjacency(r)
	rcm := CuthillMcKee(adj)
	rng := rand.New(rand.NewSource(7))
	random := Identity(r.NSpec)
	rng.Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })

	bwRCM := Bandwidth(adj, rcm)
	bwRandom := Bandwidth(adj, random)
	if bwRCM >= bwRandom {
		t.Errorf("RCM bandwidth %d not better than random %d", bwRCM, bwRandom)
	}
	// For a 4x4x4 structured grid the natural order is already good;
	// RCM must be in the same league (within 2x of natural).
	bwNat := Bandwidth(adj, Identity(r.NSpec))
	if bwRCM > 2*bwNat {
		t.Errorf("RCM bandwidth %d much worse than natural %d", bwRCM, bwNat)
	}
}

func TestMeanStrideOrdering(t *testing.T) {
	r := buildRegion(t, 4)
	adj := ElementAdjacency(r)
	rcm := CuthillMcKee(adj)
	rng := rand.New(rand.NewSource(8))
	random := Identity(r.NSpec)
	rng.Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
	if MeanStride(r, rcm) >= MeanStride(r, random) {
		t.Errorf("RCM stride %.1f not better than random %.1f",
			MeanStride(r, rcm), MeanStride(r, random))
	}
}

func TestCuthillMcKeeDisconnected(t *testing.T) {
	// Two disconnected triangles.
	adj := [][]int32{{1, 2}, {0, 2}, {0, 1}, {4, 5}, {3, 5}, {3, 4}}
	perm := CuthillMcKee(adj)
	if !IsPermutation(perm, 6) {
		t.Fatal("not a permutation on disconnected graph")
	}
}

func TestMultilevelBlocksStayTogether(t *testing.T) {
	r := buildRegion(t, 4)
	adj := ElementAdjacency(r)
	const bs = 16
	base := CuthillMcKee(adj)
	ml := MultilevelCuthillMcKee(adj, bs)
	// Each consecutive block of the base RCM order must appear
	// contiguously (in order) somewhere in the multilevel order.
	posML := make(map[int32]int)
	for p, e := range ml {
		posML[e] = p
	}
	for b := 0; b*bs < len(base); b++ {
		lo := b * bs
		hi := lo + bs
		if hi > len(base) {
			hi = len(base)
		}
		for i := lo + 1; i < hi; i++ {
			if posML[base[i]] != posML[base[i-1]]+1 {
				t.Fatalf("block %d broken between %d and %d", b, base[i-1], base[i])
			}
		}
	}
}

func TestIsPermutation(t *testing.T) {
	if !IsPermutation([]int32{2, 0, 1}, 3) {
		t.Error("valid permutation rejected")
	}
	if IsPermutation([]int32{0, 0, 1}, 3) {
		t.Error("duplicate accepted")
	}
	if IsPermutation([]int32{0, 1}, 3) {
		t.Error("short permutation accepted")
	}
	if IsPermutation([]int32{0, 1, 3}, 3) {
		t.Error("out-of-range accepted")
	}
}

// Property: CuthillMcKee always returns a permutation for random graphs.
func TestCuthillMcKeePermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		adjSet := make([]map[int32]bool, n)
		for i := range adjSet {
			adjSet[i] = map[int32]bool{}
		}
		for e := 0; e < 2*n; e++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			if a != b {
				adjSet[a][b] = true
				adjSet[b][a] = true
			}
		}
		adj := make([][]int32, n)
		for i := range adj {
			for w := range adjSet[i] {
				adj[i] = append(adj[i], w)
			}
		}
		return IsPermutation(CuthillMcKee(adj), n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Permuting elements must preserve the mesh as a set: same volume, valid
// structure, each element's audit and materials moved with it.
func TestPermuteElementsPreservesMesh(t *testing.T) {
	r := buildRegion(t, 3)
	volBefore := r.Volume()
	auditBefore := append([]mesh.ElemAudit(nil), r.Audit...)
	muBefore := append([]float32(nil), r.Mu...)

	perm := CuthillMcKee(ElementAdjacency(r))
	if err := PermuteElements(r, perm); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Volume()-volBefore) > 1e-6*volBefore {
		t.Errorf("volume changed: %g -> %g", volBefore, r.Volume())
	}
	for newE, oldE := range perm {
		if r.Audit[newE] != auditBefore[oldE] || r.Mu[newE*mesh.NGLL3+7] != muBefore[int(oldE)*mesh.NGLL3+7] {
			t.Fatalf("element %d did not move to %d whole", oldE, newE)
		}
	}
}

func TestPermuteElementsRejectsBadPerm(t *testing.T) {
	r := buildRegion(t, 2)
	if err := PermuteElements(r, []int32{0}); err == nil {
		t.Error("short permutation accepted")
	}
}

// Meshes from the in-repo meshers are already first-touch ordered, so
// the first-touch permutation must be the identity.
func TestFirstTouchIsIdentityForFreshMesh(t *testing.T) {
	r := buildRegion(t, 3)
	ft := FirstTouchPointOrder(r)
	for i, v := range ft {
		if int(v) != i {
			t.Fatalf("fresh mesh not first-touch ordered at %d -> %d", i, v)
		}
	}
}

// Scrambling the point numbering and then applying first-touch
// renumbering must restore identity ordering.
func TestRenumberPointsRoundTrip(t *testing.T) {
	r := buildRegion(t, 3)
	rng := rand.New(rand.NewSource(9))
	scramble := Identity(r.NGlob)
	rng.Shuffle(len(scramble), func(i, j int) { scramble[i], scramble[j] = scramble[j], scramble[i] })
	if err := RenumberPoints(r, scramble); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	ft := FirstTouchPointOrder(r)
	if err := RenumberPoints(r, ft); err != nil {
		t.Fatal(err)
	}
	for i, v := range FirstTouchPointOrder(r) {
		if int(v) != i {
			t.Fatalf("first-touch not restored at %d", i)
		}
	}
}

func BenchmarkCuthillMcKee(b *testing.B) {
	r := buildRegion(b, 6)
	adj := ElementAdjacency(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CuthillMcKee(adj)
	}
}

func BenchmarkMultilevelCuthillMcKee(b *testing.B) {
	r := buildRegion(b, 6)
	adj := ElementAdjacency(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MultilevelCuthillMcKee(adj, 64)
	}
}
