package mesh

import (
	"fmt"
	"sort"
)

// ExteriorPoints exposes the halo candidate scan to the external tests.
var ExteriorPoints = exteriorPoints

// BuildHaloAllPoints is the reference halo matcher BuildHalo is tested
// against: it hashes every point of every rank, so it needs no argument
// about which points can be shared. It reads Pts only, never Ibool.
func BuildHaloAllPoints(locals []*Local) ([]*HaloPlan, error) {
	plans := make([]*HaloPlan, len(locals))
	for i, l := range locals {
		if l.Rank != i {
			return nil, fmt.Errorf("mesh: locals[%d] has rank %d", i, l.Rank)
		}
		plans[i] = &HaloPlan{Rank: i}
	}
	type owner struct {
		rank int
		idx  int32
	}
	for kind := 0; kind < 3; kind++ {
		byKey := make(map[PointKey][]owner)
		for _, l := range locals {
			r := l.Regions[kind]
			if r == nil || r.NSpec == 0 {
				continue
			}
			for idx, p := range r.Pts {
				k := KeyOf(p[0], p[1], p[2])
				byKey[k] = append(byKey[k], owner{rank: l.Rank, idx: int32(idx)})
			}
		}
		type pairKey struct{ a, b int }
		type sharedPt struct {
			key    PointKey
			ia, ib int32
		}
		pairPts := make(map[pairKey][]sharedPt)
		for k, owners := range byKey {
			if len(owners) < 2 {
				continue
			}
			for x := 0; x < len(owners); x++ {
				for y := x + 1; y < len(owners); y++ {
					a, b := owners[x], owners[y]
					if a.rank == b.rank {
						return nil, fmt.Errorf("mesh: region %d: rank %d indexed point %v twice",
							kind, a.rank, k)
					}
					if a.rank > b.rank {
						a, b = b, a
					}
					pk := pairKey{a.rank, b.rank}
					pairPts[pk] = append(pairPts[pk], sharedPt{key: k, ia: a.idx, ib: b.idx})
				}
			}
		}
		// Deterministic edge ordering: sort pairs, and points by key.
		pairs := make([]pairKey, 0, len(pairPts))
		for pk := range pairPts {
			pairs = append(pairs, pk)
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].a != pairs[j].a {
				return pairs[i].a < pairs[j].a
			}
			return pairs[i].b < pairs[j].b
		})
		for _, pk := range pairs {
			pts := pairPts[pk]
			sort.Slice(pts, func(i, j int) bool {
				ki, kj := pts[i].key, pts[j].key
				if ki[0] != kj[0] {
					return ki[0] < kj[0]
				}
				if ki[1] != kj[1] {
					return ki[1] < kj[1]
				}
				return ki[2] < kj[2]
			})
			ea := HaloEdge{Peer: pk.b, Idx: make([]int32, len(pts))}
			eb := HaloEdge{Peer: pk.a, Idx: make([]int32, len(pts))}
			for i, p := range pts {
				ea.Idx[i] = p.ia
				eb.Idx[i] = p.ib
			}
			plans[pk.a].Edges[kind] = append(plans[pk.a].Edges[kind], ea)
			plans[pk.b].Edges[kind] = append(plans[pk.b].Edges[kind], eb)
		}
	}
	return plans, nil
}
