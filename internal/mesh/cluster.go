package mesh

import (
	"maps"
	"slices"
)

// Clustered local time stepping (LTS): elements are binned into
// rate-2^k clusters by their per-element stable dt (ElementDts), so a
// coarse element that could legally step r times slower than the global
// dt fires only every r-th global step. Because the depth-graded mesh
// coarsens by exact 2:1 doublings, the per-element dt spectrum is
// naturally quantized and the power-of-two binning snaps to the
// doubling-level boundaries.
//
// The point-rate rule makes the scheme consistent: a global point
// advances at the MAXIMUM rate of the elements touching it. Fine-side
// elements at a cluster interface therefore step at the fine rate but
// exchange with the coarse side only at the coarse cluster's boundaries
// (the held-boundary scheme): when a point fires at step n, every
// element touching it also fires (each element rate divides the point
// rate, which divides n), so all force contributions it assembles are
// fresh.

// Cluster is one rate group of a region's elements, with its own copy
// of the overlap classification so the solver can schedule each
// cluster's halo independently.
type Cluster struct {
	// Rate is the step decimation factor: elements fire when the
	// global step number is divisible by Rate. Always a power of two.
	Rate int32

	// Elems lists the cluster's elements in ascending order.
	Elems []int32

	// Outer and Inner split Elems by the halo-overlap classification
	// (intersection with Overlap.Outer/Inner); nil when no Overlap was
	// supplied.
	Outer, Inner []int32
}

// Clustering is the per-rank LTS partition of all regions.
type Clustering struct {
	// MaxRate is the largest allowed rate (power of two).
	MaxRate int32

	// Clusters holds each region's non-empty clusters in ascending
	// rate order, indexed by region kind.
	Clusters [3][]Cluster

	// ElemRate is each element's rate, indexed [kind][elem].
	ElemRate [3][]int32

	// PointRate is each global point's rate — the maximum rate over
	// the touching elements — indexed [kind][point]. Cross-rank halo
	// points must be reconciled (max-exchanged) by the solver before
	// use.
	PointRate [3][]int32
}

// normalizeRate clamps r to a power of two in [1, 1<<20].
func normalizeRate(r int) int32 {
	if r < 1 {
		return 1
	}
	p := int32(1)
	for int(p*2) <= r && p < 1<<20 {
		p *= 2
	}
	return p
}

// BuildClusters bins the local regions' elements into rate-2^k clusters
// for global time step dt: an element's rate is the largest power of
// two r <= maxRate with r*dt within the element's own stable dt
// (ElementDt with the given courant factor). ov may be nil; when
// present, each cluster receives its own outer/inner split.
func BuildClusters(l *Local, dt, courant float64, maxRate int, ov *Overlap) *Clustering {
	c := &Clustering{MaxRate: normalizeRate(maxRate)}
	for kind := 0; kind < 3; kind++ {
		reg := l.Regions[kind]
		if reg == nil || reg.NSpec == 0 {
			continue
		}
		rates := elementRates(reg, dt, courant, c.MaxRate)
		c.ElemRate[kind] = rates

		pr := make([]int32, reg.NGlob)
		for e := 0; e < reg.NSpec; e++ {
			for p := e * NGLL3; p < (e+1)*NGLL3; p++ {
				if g := reg.Ibool[p]; rates[e] > pr[g] {
					pr[g] = rates[e]
				}
			}
		}
		c.PointRate[kind] = pr

		for r := int32(1); r <= c.MaxRate; r *= 2 {
			var elems []int32
			for e, re := range rates {
				if re == r {
					elems = append(elems, int32(e))
				}
			}
			if elems == nil {
				continue
			}
			cl := Cluster{Rate: r, Elems: elems}
			if ov != nil {
				cl.Outer = intersectSorted(elems, ov.Outer[kind])
				cl.Inner = intersectSorted(elems, ov.Inner[kind])
			}
			c.Clusters[kind] = append(c.Clusters[kind], cl)
		}
	}
	return c
}

// elementRates bins a region's elements to LTS rates for global time
// step dt: the largest power of two r <= maxRate with r*dt within the
// element's own stable dt (ElementDt with the given courant factor).
func elementRates(reg *Region, dt, courant float64, maxRate int32) []int32 {
	dts := reg.ElementDts(courant)
	rates := make([]int32, reg.NSpec)
	for e := range rates {
		r := int32(1)
		for r*2 <= maxRate && float64(r*2)*dt <= dts[e] {
			r *= 2
		}
		rates[e] = r
	}
	return rates
}

// RateCounts returns the total element count per rate across all
// regions of this rank.
func (c *Clustering) RateCounts() map[int32]int {
	counts := make(map[int32]int)
	for kind := 0; kind < 3; kind++ {
		for _, cl := range c.Clusters[kind] {
			counts[cl.Rate] += len(cl.Elems)
		}
	}
	return counts
}

// UpdateReduction returns the rate-weighted element-update reduction of
// this rank's clustering (RateWeightedReduction of RateCounts).
func (c *Clustering) UpdateReduction() float64 {
	return RateWeightedReduction(c.RateCounts())
}

// RateWeightedReduction returns the theoretical element-update reduction
// of an element count per LTS rate, (sum N_r) / (sum N_r / r): the
// factor by which element updates per finest-level step shrink when a
// rate-r cluster fires only every r-th step — the bound the realized
// steps-of-finest-level/sec speedup is measured against (pointwise
// updates, halos and the unclustered phases dilute it). The sums run in
// ascending rate order, so the result does not depend on map order; an
// empty count gives 1.
func RateWeightedReduction[R ~int | ~int32, N ~int | ~int64](counts map[R]N) float64 {
	total, weighted := 0.0, 0.0
	for _, r := range slices.Sorted(maps.Keys(counts)) {
		total += float64(counts[r])
		weighted += float64(counts[r]) / float64(r)
	}
	if weighted == 0 {
		return 1
	}
	return total / weighted
}

// intersectSorted returns the ascending intersection of two ascending
// lists. The result is non-nil whenever both inputs are non-nil, so an
// empty split stays distinguishable from "no classification supplied".
func intersectSorted(a, b []int32) []int32 {
	if a == nil || b == nil {
		return nil
	}
	out := []int32{}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
