package mesh

import (
	"cmp"
	"fmt"
	"slices"

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

// buildRegionHalo matches one region kind across ranks and appends the
// resulting edges to plans.
func buildRegionHalo(locals []*Local, kind int, plans []*HaloPlan) error {
	cands := make([][]int32, len(locals))
	total := 0
	for i, l := range locals {
		if r := l.Regions[kind]; r != nil && r.NSpec > 0 {
			cands[i] = exteriorPoints(r)
			total += len(cands[i])
		}
	}
	// owners chains the candidates that share a key, newest first;
	// byKey holds the head of each chain (an index into owners).
	type owner struct {
		rank, idx, next int32
	}
	owners := make([]owner, 0, total)
	byKey := make(map[PointKey]int32, total)
	type sharedPt struct {
		key    PointKey
		ia, ib int32
	}
	type pair struct {
		a, b int
		pts  []sharedPt
	}
	var pairs []*pair
	pairOf := map[[2]int]*pair{}
	// Ranks arrive in ascending order, so every owner already chained
	// under a key has a lower rank than the one being added.
	for rank, c := range cands {
		pts := locals[rank].Regions[kind].Pts
		for _, idx := range c {
			p := pts[idx]
			k := KeyOf(p[0], p[1], p[2])
			head, seen := byKey[k]
			if !seen {
				head = -1
			}
			for o := head; o >= 0; o = owners[o].next {
				a := owners[o]
				if int(a.rank) == rank {
					return fmt.Errorf("mesh: region %d: rank %d indexed point %v twice", kind, rank, k)
				}
				pk := [2]int{int(a.rank), rank}
				pr := pairOf[pk]
				if pr == nil {
					pr = &pair{a: pk[0], b: pk[1]}
					pairOf[pk] = pr
					pairs = append(pairs, pr)
				}
				pr.pts = append(pr.pts, sharedPt{key: k, ia: a.idx, ib: idx})
			}
			byKey[k] = int32(len(owners))
			owners = append(owners, owner{rank: int32(rank), idx: idx, next: head})
		}
	}
	// Deterministic edge ordering: sort pairs, and points by key.
	slices.SortFunc(pairs, func(x, y *pair) int {
		return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
	})
	for _, pr := range pairs {
		slices.SortFunc(pr.pts, func(x, y sharedPt) int {
			return slices.Compare(x.key[:], y.key[:])
		})
		ea := HaloEdge{Peer: pr.b, Idx: make([]int32, len(pr.pts))}
		eb := HaloEdge{Peer: pr.a, Idx: make([]int32, len(pr.pts))}
		for i, p := range pr.pts {
			ea.Idx[i] = p.ia
			eb.Idx[i] = p.ib
		}
		plans[pr.a].Edges[kind] = append(plans[pr.a].Edges[kind], ea)
		plans[pr.b].Edges[kind] = append(plans[pr.b].Edges[kind], eb)
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
// measure the paper's mesh design work optimizes. The Cost fields are
// the rate-weighted refinement (ComputeLoadStatsRated): under clustered
// local time stepping a rank's work per finest-level step is
// sum(1/rate) over its elements, not its element count, so an
// element-balanced partition can still be cost-imbalanced when the
// rate-1 elements concentrate on few ranks.
type LoadStats struct {
	MinElems, MaxElems int
	MeanElems          float64
	// Imbalance is MaxElems / MeanElems; 1.0 is perfect balance.
	Imbalance float64
	// MinCost/MaxCost/MeanCost are per-rank sum(1/rate) statistics;
	// zero unless computed by ComputeLoadStatsRated.
	MinCost, MaxCost, MeanCost float64
	// CostImbalance is MaxCost / MeanCost; 1.0 is perfect LTS balance.
	CostImbalance float64
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

// ComputeLoadStatsRated extends ComputeLoadStats with the rate-weighted
// cost balance of clustered local time stepping: each element is binned
// to its LTS rate by BuildClusters' rule (elementRates: the largest power
// of two r <= maxRate with r*dt within the element's stable dt) and a
// rank's cost is sum(1/rate) — its element updates per finest-level
// step. With LTS off (maxRate <= 1) every rate is 1 and the cost
// imbalance equals the element imbalance.
func ComputeLoadStatsRated(locals []*Local, dt, courant float64, maxRate int) LoadStats {
	s := ComputeLoadStats(locals)
	if len(locals) == 0 {
		return s
	}
	mr := normalizeRate(maxRate)
	first := true
	totalCost := 0.0
	for _, l := range locals {
		cost := 0.0
		for kind := 0; kind < 3; kind++ {
			reg := l.Regions[kind]
			if reg == nil || reg.NSpec == 0 {
				continue
			}
			for _, r := range elementRates(reg, dt, courant, mr) {
				cost += 1 / float64(r)
			}
		}
		totalCost += cost
		if first || cost < s.MinCost {
			s.MinCost = cost
		}
		if cost > s.MaxCost {
			s.MaxCost = cost
		}
		first = false
	}
	s.MeanCost = totalCost / float64(len(locals))
	if s.MeanCost > 0 {
		s.CostImbalance = s.MaxCost / s.MeanCost
	}
	return s
}
