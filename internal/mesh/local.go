package mesh

import (
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"specglobe/internal/earthmodel"
)

// CoupleFace is one fluid-solid boundary face (on the CMB or ICB) shared
// between a fluid element and a solid element on the same rank. The
// coupling integrals evaluate at the NGLL2 face points, which coincide
// geometrically in both regions but carry independent degrees of
// freedom.
type CoupleFace struct {
	// SolidKind is the solid region involved (crust/mantle at the CMB,
	// inner core at the ICB).
	SolidKind earthmodel.Region
	// SolidPt and FluidPt are the local global indices of the NGLL2
	// coincident face points in the solid and fluid regions.
	SolidPt [NGLL2]int32
	FluidPt [NGLL2]int32
	// Normal is the unit normal at each face point, oriented from the
	// fluid into the solid.
	Nx, Ny, Nz [NGLL2]float32
	// Weight is the surface Jacobian times the 2D GLL weights at each
	// face point.
	Weight [NGLL2]float32
}

// SurfaceLoad describes the free-surface points of the crust/mantle
// region, used for the ocean mass load approximation: instead of meshing
// the water column, the normal component of the surface mass matrix is
// augmented by the mass of the overlying water.
type SurfaceLoad struct {
	Pts        []int32   // crust/mantle local global indices
	Nx, Ny, Nz []float32 // outward unit normal per point
	AreaW      []float32 // assembled surface quadrature weight per point
	WaterRho   float64   // density of sea water (kg/m^3)
	WaterDepth float64   // water-column thickness (m); 0 disables the load
}

// Local is the complete mesh a single rank owns.
type Local struct {
	Rank int
	// Regions indexed by earthmodel.Region. Entries may have NSpec == 0
	// (e.g. the box mesher only fills crust/mantle).
	Regions [3]*Region
	// CMB and ICB are the fluid-solid coupling faces on this rank.
	CMB, ICB []CoupleFace
	// Surface is the free-surface information for the ocean load.
	Surface SurfaceLoad
}

// Region returns the mesh for a region kind (may be an empty region).
func (l *Local) Region(k earthmodel.Region) *Region { return l.Regions[k] }

// TotalElements returns the number of spectral elements on this rank.
func (l *Local) TotalElements() int {
	n := 0
	for _, r := range l.Regions {
		if r != nil {
			n += r.NSpec
		}
	}
	return n
}

// TotalPoints returns the number of distinct local grid points across
// regions (fluid-solid boundary points counted once per region, as they
// are independent degrees of freedom).
func (l *Local) TotalPoints() int {
	n := 0
	for _, r := range l.Regions {
		if r != nil {
			n += r.NGlob
		}
	}
	return n
}

// HaloEdge lists, for one neighboring rank, the local global point
// indices whose values must be exchanged and summed during assembly.
// Both ends store the shared points in the same (key-sorted) order.
type HaloEdge struct {
	Peer int
	Idx  []int32
}

// HaloPlan is a rank's communication plan: for each region, the edges to
// every rank it shares points with.
type HaloPlan struct {
	Rank  int
	Edges [3][]HaloEdge // indexed by earthmodel.Region
}

// NeighborCount returns the number of distinct peer ranks across all
// regions.
func (h *HaloPlan) NeighborCount() int {
	seen := map[int]bool{}
	for _, edges := range h.Edges {
		for _, e := range edges {
			seen[e.Peer] = true
		}
	}
	return len(seen)
}

// BoundaryPoints returns the total number of shared point slots in the
// plan (one per (region, peer, point)).
func (h *HaloPlan) BoundaryPoints() int {
	n := 0
	for _, edges := range h.Edges {
		for _, e := range edges {
			n += len(e.Idx)
		}
	}
	return n
}

// BuildHalo computes the communication plans for a set of rank-local
// meshes. It matches points by exact coordinate key: a point held by
// several ranks in the same region becomes a shared assembly point on
// every pair of owners. Shared lists are ordered by key so both ends of
// an edge agree on the ordering without communication.
//
// In the original code the mesher constructs these buffers from the
// known cubed-sphere topology; building them from the authoritative
// point keys is equivalent and also covers the central-cube sectoring.
// Only points on a rank-region's exterior faces are keyed (see
// exteriorPoints): ranks own disjoint sets of elements, so a point two
// ranks hold lies on the boundary of both.
func BuildHalo(locals []*Local) ([]*HaloPlan, error) {
	plans := make([]*HaloPlan, len(locals))
	for i, l := range locals {
		if l.Rank != i {
			return nil, fmt.Errorf("mesh: locals[%d] has rank %d", i, l.Rank)
		}
		plans[i] = &HaloPlan{Rank: i}
	}
	for kind := 0; kind < 3; kind++ {
		if err := buildRegionHalo(locals, kind, plans); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// faceNodes lists, for each of an element's six faces, the element-local
// offsets of its NGLL2 nodes; entry faceCentre is the face's centre node.
var faceNodes = func() (fn [6][NGLL2]int) {
	for f := range fn {
		axis, fixed := f/2, (f%2)*(NGLL-1)
		for v := 0; v < NGLL; v++ {
			for u := 0; u < NGLL; u++ {
				var ijk [3]int
				ijk[axis], ijk[(axis+1)%3], ijk[(axis+2)%3] = fixed, u, v
				fn[f][u+NGLL*v] = Idx(0, ijk[0], ijk[1], ijk[2])
			}
		}
	}
	return fn
}()

const faceCentre = NGLL2 / 2

// exteriorPoints returns, in ascending order, the points of r that lie
// on an exterior face of the region: a face whose centre node is
// referenced by exactly one element. In a conforming hexahedral mesh a
// face interior to the region is shared by two of its elements and both
// reference its centre node, which belongs to no other face; and every
// point on the region's boundary lies on some exterior face. The scan
// reads Ibool only, so it holds for any mesher's elements.
func exteriorPoints(r *Region) []int32 {
	refs := make([]uint8, r.NGlob)
	for e := 0; e < r.NSpec; e++ {
		ib := r.Ibool[e*NGLL3 : (e+1)*NGLL3]
		for f := range faceNodes {
			refs[ib[faceNodes[f][faceCentre]]]++
		}
	}
	onFace := make([]bool, r.NGlob)
	n := 0
	for e := 0; e < r.NSpec; e++ {
		ib := r.Ibool[e*NGLL3 : (e+1)*NGLL3]
		for f := range faceNodes {
			if refs[ib[faceNodes[f][faceCentre]]] != 1 {
				continue
			}
			for _, q := range faceNodes[f] {
				if p := ib[q]; !onFace[p] {
					onFace[p] = true
					n++
				}
			}
		}
	}
	pts := make([]int32, 0, n)
	for p, on := range onFace {
		if on {
			pts = append(pts, int32(p))
		}
	}
	return pts
}

// haloCand is one exterior point a rank offers to the match.
type haloCand struct {
	key PointKey
	idx int32
}

// sharedPt is one point two ranks hold, with its index on each.
type sharedPt struct {
	key    PointKey
	ia, ib int32
}

// shardOf assigns a key to one of n match shards.
func shardOf(k PointKey, n int) int {
	h := (k[0] ^ k[1]*0x9e3779b97f4a7c15 ^ k[2]*0xc2b2ae3d27d4eb4f) * 0x9e3779b97f4a7c15
	return int((h >> 32) * uint64(n) >> 32)
}

// keyOwner is one candidate in a match shard's chains: the candidates
// of one key are chained newest first through next.
type keyOwner struct {
	key             PointKey
	rank, idx, next int32
}

// keyHeads is a match shard's key index: a flat open-addressing table
// of int32 chain heads (-1: empty) into the shard's owners, probed
// linearly from a slot picked by keyMix. A probe compares the full key
// of the chain it meets, so distinct keys that land in one probe
// sequence never share a chain.
type keyHeads struct {
	heads []int32
	shift uint // 64 - log2(len(heads))
}

// newKeyHeads returns an empty table for n keys, at most half full.
func newKeyHeads(n int) keyHeads {
	b := bits.Len(uint(max(2*n-1, 1)))
	heads := make([]int32, 1<<b)
	for i := range heads {
		heads[i] = -1
	}
	return keyHeads{heads: heads, shift: uint(64 - b)}
}

// slot returns the table entry holding k's chain head, or the empty
// entry where it goes.
func (t *keyHeads) slot(k PointKey, owners []keyOwner) *int32 {
	mask := uint64(len(t.heads) - 1)
	for i := keyMix(k) >> t.shift; ; i = (i + 1) & mask {
		h := &t.heads[i]
		if *h < 0 || owners[*h].key == k {
			return h
		}
	}
}

// keyMix hashes a key for the head table: a multiply-xor over the three
// words whose top bits depend on every bit of the key. shardOf's hash
// would not do: its top bits are what picked the shard, so they are
// nearly constant across one shard's keys.
func keyMix(k PointKey) uint64 {
	h := (k[0]*0x9e3779b97f4a7c15 ^ k[1]) * 0xc2b2ae3d27d4eb4f
	return (h ^ h>>29 ^ k[2]) * 0x165667b19e3779f9
}

// compareKeys orders keys lexicographically by word, as
// slices.Compare does, reading the next word only on a tie.
func compareKeys(x, y *PointKey) int {
	switch {
	case x[0] != y[0]:
		return cmp.Compare(x[0], y[0])
	case x[1] != y[1]:
		return cmp.Compare(x[1], y[1])
	}
	return cmp.Compare(x[2], y[2])
}

// ForEach calls f(i) for every i in [0, n) on min(GOMAXPROCS, n)
// goroutines and returns when every call has: the one parallel loop of
// the per-rank mesh builds and the halo match. f must only write state
// its own i owns.
func ForEach(n int, f func(i int)) {
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for ; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// buildRegionHalo matches one region kind across ranks and appends the
// resulting edges to plans. Each rank's exterior points and keys are
// gathered in parallel, bucketed by key hash into shards; each shard
// then chains its keys over the ranks in ascending order, so it finds
// exactly the shared points the one serial match found for its keys.
// The per-pair point lists are merged and sorted by key, which makes the
// plans independent of the shard count.
func buildRegionHalo(locals []*Local, kind int, plans []*HaloPlan) error {
	nShards := min(runtime.GOMAXPROCS(0), len(locals))
	cands := make([][][]haloCand, len(locals)) // [rank][shard]
	ForEach(len(locals), func(rank int) {
		r := locals[rank].Regions[kind]
		if r == nil || r.NSpec == 0 {
			return
		}
		ext := exteriorPoints(r)
		key := func(idx int32) PointKey {
			p := r.Pts[idx]
			return KeyOf(p[0], p[1], p[2])
		}
		counts := make([]int, nShards)
		for _, idx := range ext {
			counts[shardOf(key(idx), nShards)]++
		}
		buckets := make([][]haloCand, nShards)
		for s, n := range counts {
			buckets[s] = make([]haloCand, 0, n)
		}
		for _, idx := range ext {
			k := key(idx)
			s := shardOf(k, nShards)
			buckets[s] = append(buckets[s], haloCand{key: k, idx: idx})
		}
		cands[rank] = buckets
	})

	type shardResult struct {
		pairs map[[2]int32][]sharedPt
		// err is the shard's first duplicate point, at (errRank, errIdx).
		err             error
		errRank, errIdx int32
	}
	shards := make([]shardResult, nShards)
	ForEach(nShards, func(s int) {
		total := 0
		for _, c := range cands {
			if c != nil {
				total += len(c[s])
			}
		}
		// owners chains the candidates that share a key, newest first;
		// heads holds the head of each chain.
		owners := make([]keyOwner, 0, total)
		heads := newKeyHeads(total)
		res := &shards[s]
		res.pairs = map[[2]int32][]sharedPt{}
		// Ranks arrive in ascending order, so every owner already chained
		// under a key has a lower rank than the one being added.
		for rank, c := range cands {
			if c == nil {
				continue
			}
			for _, cd := range c[s] {
				at := heads.slot(cd.key, owners)
				head := *at
				for o := head; o >= 0; o = owners[o].next {
					a := &owners[o]
					if int(a.rank) == rank {
						res.err = fmt.Errorf("mesh: region %d: rank %d indexed point %v twice", kind, rank, cd.key)
						res.errRank, res.errIdx = int32(rank), cd.idx
						return
					}
					pk := [2]int32{a.rank, int32(rank)}
					res.pairs[pk] = append(res.pairs[pk], sharedPt{key: cd.key, ia: a.idx, ib: cd.idx})
				}
				*at = int32(len(owners))
				owners = append(owners, keyOwner{key: cd.key, rank: int32(rank), idx: cd.idx, next: head})
			}
		}
	})
	// The serial match would have stopped at the lowest (rank, point)
	// duplicate; every shard reports its lowest.
	var first *shardResult
	for s := range shards {
		if r := &shards[s]; r.err != nil && (first == nil ||
			cmp.Or(cmp.Compare(r.errRank, first.errRank), cmp.Compare(r.errIdx, first.errIdx)) < 0) {
			first = r
		}
	}
	if first != nil {
		return first.err
	}

	// Deterministic edge ordering: sort pairs, and points by key.
	byPair := map[[2]int32][][]sharedPt{}
	for _, sh := range shards {
		for pk, pts := range sh.pairs {
			byPair[pk] = append(byPair[pk], pts)
		}
	}
	pairs := slices.SortedFunc(maps.Keys(byPair), func(x, y [2]int32) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	edges := make([][2]HaloEdge, len(pairs))
	ForEach(len(pairs), func(i int) {
		pk := pairs[i]
		pts := slices.Concat(byPair[pk]...)
		slices.SortFunc(pts, func(x, y sharedPt) int { return compareKeys(&x.key, &y.key) })
		ea := HaloEdge{Peer: int(pk[1]), Idx: make([]int32, len(pts))}
		eb := HaloEdge{Peer: int(pk[0]), Idx: make([]int32, len(pts))}
		for j, p := range pts {
			ea.Idx[j] = p.ia
			eb.Idx[j] = p.ib
		}
		edges[i] = [2]HaloEdge{ea, eb}
	})
	for i, pk := range pairs {
		plans[pk[0]].Edges[kind] = append(plans[pk[0]].Edges[kind], edges[i][0])
		plans[pk[1]].Edges[kind] = append(plans[pk[1]].Edges[kind], edges[i][1])
	}
	return nil
}

// HaloStats summarizes the communication surface of a distributed mesh
// against its computational volume — the ratio the overlap schedule's
// hiding ability and the comm fraction both depend on, and the quantity
// mesh doubling changes: coarsening deep layers removes halo surface
// (boundary GLL points) and volume (elements) together.
type HaloStats struct {
	// Elements and TotalPoints are summed over ranks (interface copies
	// counted once per owner, as stored).
	Elements    int
	TotalPoints int
	// HaloPoints is the total number of shared point slots across all
	// plans (one per region, peer and point) — the per-step assembly
	// traffic in units of points.
	HaloPoints int
	// SurfacePerVolume is HaloPoints / Elements: halo surface per unit
	// of computational work. MeanRankSV is the mean of the same ratio
	// taken rank by rank.
	SurfacePerVolume float64
	MeanRankSV       float64
}

// ComputeHaloStats measures the halo surface-to-volume ratio of a
// distributed mesh.
func ComputeHaloStats(locals []*Local, plans []*HaloPlan) HaloStats {
	var s HaloStats
	meanSum := 0.0
	for i, l := range locals {
		e := l.TotalElements()
		h := plans[i].BoundaryPoints()
		s.Elements += e
		s.TotalPoints += l.TotalPoints()
		s.HaloPoints += h
		if e > 0 {
			meanSum += float64(h) / float64(e)
		}
	}
	if s.Elements > 0 {
		s.SurfacePerVolume = float64(s.HaloPoints) / float64(s.Elements)
		s.MeanRankSV = meanSum / float64(len(locals))
	}
	return s
}

// LoadStats summarizes element counts across ranks, the load-balance
// measure the paper's mesh design work optimizes.
type LoadStats struct {
	MinElems, MaxElems int
	MeanElems          float64
	// Imbalance is MaxElems / MeanElems; 1.0 is perfect balance.
	Imbalance float64
}

// ComputeLoadStats returns the element-count balance across ranks.
func ComputeLoadStats(locals []*Local) LoadStats {
	if len(locals) == 0 {
		return LoadStats{}
	}
	s := LoadStats{MinElems: int(^uint(0) >> 1)}
	total := 0
	for _, l := range locals {
		n := l.TotalElements()
		total += n
		if n < s.MinElems {
			s.MinElems = n
		}
		if n > s.MaxElems {
			s.MaxElems = n
		}
	}
	s.MeanElems = float64(total) / float64(len(locals))
	if s.MeanElems > 0 {
		s.Imbalance = float64(s.MaxElems) / s.MeanElems
	}
	return s
}
