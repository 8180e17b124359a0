package solver

import (
	"math/bits"
	"slices"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

// The time loop walks a wheel of level plans. Under clustered local time
// stepping the mesh layer bins elements into rate-2^k clusters
// (mesh.BuildClusters), and at global step n exactly the clusters whose
// rate divides n fire — rate-1 every step, rate-2 every other step,
// rate-4 every fourth. Level li of the wheel is the plan of the steps
// whose largest power-of-two divisor is 2^li (capped at the top level,
// which fires everything). A global point advances at the maximum rate
// of its touching elements, so whenever a point fires, every element
// contributing to it fires too and the assembled force is fully fresh.
//
// Each levelPlan is resolved once at setup (buildLevels) and the step
// reads nothing else: the colour classes that fire, the points that
// fire and with what dt (one span list per region, the ocean-load
// surface points) and one halo route per set. A run without local time
// stepping is the wheel with one level: the overlap classes, one span
// list over every point at dt per region and the unmasked routes, with
// no clustering built. A level keeps the base plan's entry wherever
// everything fires, so a clustering that degenerates to rate 1
// everywhere runs the one-level arithmetic exactly.
//
// State held across dormant steps ("held-boundary" scheme): the only
// arrays element sweeps scatter into are the accelerations, so a
// dormant point's acceleration slot accumulates garbage from firing
// neighbors — harmless, because the predictor zeroes it at the point's
// next firing. Each field of a region with a point of rate above 1
// therefore keeps held, one final acceleration per point: the tail
// copies every fired point's into it (the ocean loop its surface
// points', after the load), the predictor reads it in place of the live
// slot, and the solid traction reads the fluid's held value at the
// CMB/ICB face points, which stays the last fired one while the fluid
// slot cycles through garbage. A point that fires every step reads what
// the live slot holds: nothing writes it between its tail and the next
// predictor.
//
// Halo exchanges stay tag-aligned across ranks at every step; only the
// payloads shrink: each level's route of a halo set lists the shared
// points that fire at that level (both endpoints agree because point
// rates are max-reconciled across ranks at startup, and HaloEdge.Idx is
// key-sorted identically on both ends). A peer with no firing points is
// dropped from the level's route entirely — a real message-count saving
// on coarse steps.

// span is a run of consecutive points [i, i+n) of one rate that fire
// with time step dt. Spans are at most minPointChunk long, so a list of
// one long run still splits into pool chunks.
type span struct {
	i, n int32
	dt   float32
}

// oceanPoint is a firing surface point: j indexes the mesh's
// SurfaceLoad, dt is the point's time step.
type oceanPoint struct {
	j  int32
	dt float32
}

// levelPlan is everything one spoke of the wheel runs; [3] arrays are
// indexed by region kind.
type levelPlan struct {
	sweeps [3]sweepClasses // the outer/inner colour classes that fire
	spans  [3][]span       // the points that fire, ascending
	fired  [3]int          // the number of points the spans cover
	ocean  []oceanPoint    // the ocean-load surface points that fire
	routes [nHaloSets]haloRoute
}

// ltsLevelOf returns the firing level index of a global step: the
// largest li < levels with 2^li dividing step (step 0 fires everything).
func ltsLevelOf(step, levels int) int {
	li := 0
	for li < levels-1 && step%(1<<uint(li+1)) == 0 {
		li++
	}
	return li
}

// buildLevels resolves the wheel into rs.levels, and is the one place
// that asks whether local time stepping is on. The base plan fires
// everything: the overlap colour classes, every point at dt, the
// unmasked routes. Without LTS it is the only level. With LTS the
// elements are clustered, the halo points' rates reconciled across
// ranks, and each level narrows the base plan (wheelLevels).
func (rs *rankState) buildLevels(ov *mesh.Overlap) {
	var base levelPlan
	for kind, reg := range rs.local.Regions {
		if reg == nil || reg.NSpec == 0 {
			continue
		}
		base.sweeps[kind] = sweepClasses{
			outer: rs.colors.Classes(kind, ov.Outer[kind]),
			inner: rs.colors.Classes(kind, ov.Inner[kind]),
		}
		rs.firePoints(&base, kind, 1)
	}
	base.routes = rs.levelRoutes(nil, 0)
	rs.levels = []levelPlan{base}
	if rs.opts.LTS {
		rs.clus = mesh.BuildClusters(rs.local, rs.dt, rs.opts.Courant, rs.opts.LTSMaxRate, ov)
		rs.reconcilePointRates()
		rs.levels = rs.wheelLevels(&base)
	}
	rs.lp = &rs.levels[len(rs.levels)-1]
}

// reconcilePointRates max-exchanges the halo points' rates so both ends
// of every edge agree: a point's local rate can miss a coarser element
// on the remote side. One round over the unmasked routes suffices — the
// halo builder creates an edge for every rank pair sharing a point, so
// each rank receives every other sharer's value directly. Every rank
// consumes the same tags.
func (rs *rankState) reconcilePointRates() {
	for kind := 0; kind < 3; kind++ {
		pr := rs.clus.PointRate[kind]
		vals := make([]float32, len(pr))
		for g, r := range pr {
			vals[g] = float32(r)
		}
		rt := rs.fullRoute(kind)
		p := rs.beginExchange(rt, 1, 1, [][][]float32{{vals}})
		for i, peer := range rt {
			got := p.reqs[i].Wait()
			for j, g := range peer.parts[0] {
				if r := int32(got[j]); r > pr[g] {
					pr[g] = r
				}
			}
		}
	}
}

// wheelLevels narrows the base plan to each level of the clustering:
// level li fires the clusters and points of rate at most 2^li. A region
// whose last cluster is coarser gets the level's colour classes, and a
// multi-rate region the level's points. The top level's routes are the
// base plan's (every point fires there).
func (rs *rankState) wheelLevels(base *levelPlan) []levelPlan {
	clus := rs.clus
	levels := make([]levelPlan, bits.Len32(uint32(clus.MaxRate))) // rates 1, 2, ..., MaxRate (a power of two)
	for li := range levels {
		rate := int32(1) << uint(li)
		lp := *base
		for kind, cls := range clus.Clusters {
			if len(cls) > 0 && cls[len(cls)-1].Rate > rate {
				lp.sweeps[kind] = rs.levelSweeps(kind, rate)
			}
			if rs.multiRate(kind) {
				rs.firePoints(&lp, kind, rate)
			}
		}
		if li < len(levels)-1 {
			lp.routes = rs.levelRoutes(&clus.PointRate, rate)
		}
		levels[li] = lp
	}
	return levels
}

// multiRate reports whether local time stepping holds some point of a
// region dormant: the region has a point of rate above 1. Its fields
// keep held accelerations.
func (rs *rankState) multiRate(kind int) bool {
	return rs.clus != nil && slices.ContainsFunc(rs.clus.PointRate[kind], func(r int32) bool { return r > 1 })
}

// firePoints sets a region's firing points in lp: the points of rate at
// most rate (every point before clustering) as ascending spans, each of
// one rate and carrying that rate times dt, and in the crust/mantle the
// ocean-load surface points among them. Rate 0, a point no element
// touches, counts as 1.
//
//specfem:noaccount one-time setup: the float math is the rate-scaled dt of each span
func (rs *rankState) firePoints(lp *levelPlan, kind int, rate int32) {
	rateOf := func(g int32) int32 {
		if rs.clus == nil {
			return 1
		}
		return max(rs.clus.PointRate[kind][g], 1)
	}
	dt := float32(rs.dt)
	var spans []span
	n := 0
	for g := int32(0); g < int32(rs.local.Regions[kind].NGlob); g++ {
		r := rateOf(g)
		if r > rate {
			continue
		}
		d := dt * float32(r)
		if k := len(spans) - 1; k >= 0 && spans[k].i+spans[k].n == g && spans[k].dt == d && spans[k].n < minPointChunk {
			spans[k].n++
		} else {
			spans = append(spans, span{i: g, n: 1, dt: d})
		}
		n++
	}
	lp.spans[kind], lp.fired[kind] = spans, n
	if kind == int(earthmodel.RegionCrustMantle) && rs.oceanOn() {
		lp.ocean = nil
		for j, pt := range rs.local.Surface.Pts {
			if r := rateOf(pt); r <= rate {
				lp.ocean = append(lp.ocean, oceanPoint{j: int32(j), dt: dt * float32(r)})
			}
		}
	}
}

// levelSweeps colours the merged outer and inner elements of every
// cluster with rate at most rate.
func (rs *rankState) levelSweeps(kind int, rate int32) sweepClasses {
	// Non-nil even when empty: Classes reads a nil list as every element.
	outer, inner := []int32{}, []int32{}
	for _, cl := range rs.clus.Clusters[kind] {
		if cl.Rate <= rate {
			outer = append(outer, cl.Outer...)
			inner = append(inner, cl.Inner...)
		}
	}
	slices.Sort(outer)
	slices.Sort(inner)
	return sweepClasses{outer: rs.colors.Classes(kind, outer), inner: rs.colors.Classes(kind, inner)}
}

// upToRate returns the subset of pts whose rate is at most rate, in
// order — pts itself when every point qualifies, so fully firing lists
// cost no memory.
func upToRate(pts []int32, pr []int32, rate int32) []int32 {
	sel := []int32{}
	for _, p := range pts {
		if pr[p] <= rate {
			sel = append(sel, p)
		}
	}
	if len(sel) == len(pts) {
		return pts
	}
	return sel
}
