package solver

import (
	"cmp"
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
// reads nothing else: the colour classes that fire, the Newmark passes
// (point spans, hold level, rate-scaled dt, ocean points; together the
// points that fire), the traction-shadow points and one halo route per
// set. A run without local time stepping is the wheel with one level:
// the overlap classes, one full-range pass per region at dt and the
// unmasked routes, with no clustering built. A level keeps the base
// plan's entry wherever everything fires, so a clustering that
// degenerates to rate 1 everywhere runs the one-level arithmetic exactly.
//
// State held across dormant steps ("held-boundary" scheme): the only
// arrays element sweeps scatter into are the accelerations, so a
// dormant point's acceleration slot accumulates garbage from firing
// neighbors — harmless, because the predictor zeroes it at the point's
// next firing. The two places that *read* acceleration across a
// dormant window get held copies instead:
//
//   - the predictor of a coarse point needs the final acceleration of
//     the previous firing: captured into hold arrays by the tail (by the
//     ocean loop at the surface points);
//   - the solid traction reads the fluid potential's second derivative
//     at CMB/ICB face points every step: a shadow array (accHold)
//     refreshed after the fluid tail keeps the last fired value visible
//     while the fluid slot cycles through garbage.
//
// Halo exchanges stay tag-aligned across ranks at every step; only the
// payloads shrink: each level's route of a halo set lists the shared
// points that fire at that level (both endpoints agree because point
// rates are max-reconciled across ranks at startup, and HaloEdge.Idx is
// key-sorted identically on both ends). A peer with no firing points is
// dropped from the level's route entirely — a real message-count saving
// on coarse steps.

// span is a run of consecutive points [i, i+n) of a Newmark pass whose
// hold slots start at pass position at. Spans are at most minPointChunk
// long, so a pass over one long run still splits into pool chunks.
type span struct{ i, at, n int32 }

// newmarkPass is one Newmark point pass: n points, as ascending spans,
// advancing with dt; hold > 0 names the per-field hold arrays (h[hold],
// hChi[hold]) that carry the acceleration across dormant steps. ocean
// lists the pass's ocean-load surface points.
type newmarkPass struct {
	spans   []span
	n, hold int
	dt      float32
	ocean   []oceanPoint
}

// oceanPoint is a surface point of a pass: j indexes the mesh's
// SurfaceLoad, q is the point's pass position.
type oceanPoint struct{ j, q int32 }

// levelPlan is everything one spoke of the wheel runs; [3] arrays are
// indexed by region kind.
type levelPlan struct {
	sweeps [3]sweepClasses  // the outer/inner colour classes that fire
	passes [3][]newmarkPass // the Newmark passes, ascending rate
	// shadow lists the firing coupling-face points of the fluid, copied
	// into the traction shadow (nil unless the fluid is multi-rate).
	shadow []int32
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
// everything: the overlap colour classes, one full-range pass per region
// at dt, the unmasked routes. Without LTS it is the only level. With LTS
// the elements are clustered, the halo points' rates reconciled across
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
		base.passes[kind] = []newmarkPass{rs.newPass(kind, nil, reg.NGlob, 0, float32(rs.dt))}
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
// level li fires the clusters and points of rate at most 2^li. A
// multi-rate region's passes are byRate[kind][:li+1], one per rate (its
// points may be none), with the rate-scaled dt and hold level li. The
// top level's routes are the base plan's (every point fires there).
//
//specfem:noaccount one-time setup: the float math is the rate-scaled dt of each pass
func (rs *rankState) wheelLevels(base *levelPlan) []levelPlan {
	clus := rs.clus
	n := bits.Len32(uint32(clus.MaxRate)) // rates 1, 2, ..., MaxRate (a power of two)
	var byRate [3][]newmarkPass
	for kind := range byRate {
		for hold, list := range ratePoints(clus.PointRate[kind], n) {
			dt := float32(rs.dt) * float32(int32(1)<<uint(hold))
			byRate[kind] = append(byRate[kind], rs.newPass(kind, list, len(list), hold, dt))
		}
	}
	oc := earthmodel.RegionOuterCore
	var face []int32
	if byRate[oc] != nil {
		face = couplingFacePoints(rs.local, len(clus.PointRate[oc]))
	}
	levels := make([]levelPlan, n)
	for li := range levels {
		rate := int32(1) << uint(li)
		lp := *base
		for kind, passes := range byRate {
			if clus.ElemsUpTo(kind, rate) != nil {
				lp.sweeps[kind] = rs.levelSweeps(kind, rate)
			}
			if passes != nil {
				lp.passes[kind] = passes[:li+1]
			}
		}
		if face != nil {
			lp.shadow = upToRate(face, clus.PointRate[oc], rate)
		}
		if li < n-1 {
			lp.routes = rs.levelRoutes(&clus.PointRate, rate)
		}
		levels[li] = lp
	}
	return levels
}

// ratePoints bins a region's points by rate: exact[li] lists the points
// of rate exactly 2^li (rate 0, a point no element touches, counts as
// 1), ascending. It is nil when no point has a rate above 1.
func ratePoints(pr []int32, levels int) (exact [][]int32) {
	if !slices.ContainsFunc(pr, func(r int32) bool { return r > 1 }) {
		return nil
	}
	exact = make([][]int32, levels)
	for g, r := range pr {
		li := bits.TrailingZeros32(uint32(max(r, 1)))
		exact[li] = append(exact[li], int32(g))
	}
	return exact
}

// newPass builds the Newmark pass over the n points of the ascending
// list ([0, n) when nil) and, in the crust/mantle, its ocean points.
func (rs *rankState) newPass(kind int, list []int32, n, hold int, dt float32) newmarkPass {
	ps := newmarkPass{n: n, hold: hold, dt: dt}
	for q := 0; q < n; q++ {
		i := int32(q)
		if list != nil {
			i = list[q]
		}
		if k := len(ps.spans) - 1; k >= 0 && ps.spans[k].i+ps.spans[k].n == i && ps.spans[k].n < minPointChunk {
			ps.spans[k].n++
		} else {
			ps.spans = append(ps.spans, span{i: i, at: int32(q), n: 1})
		}
	}
	if kind == int(earthmodel.RegionCrustMantle) && rs.oceanOn() {
		for j, pt := range rs.local.Surface.Pts {
			// The first span ending past pt holds it if it starts at or before it.
			k, _ := slices.BinarySearchFunc(ps.spans, pt, func(s span, pt int32) int { return cmp.Compare(s.i+s.n, pt+1) })
			if k < len(ps.spans) && ps.spans[k].i <= pt {
				ps.ocean = append(ps.ocean, oceanPoint{j: int32(j), q: ps.spans[k].at + pt - ps.spans[k].i})
			}
		}
	}
	return ps
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

// allocHolds gives every wavefield the hold arrays its passes name, and
// the fluid the traction shadow when the plan keeps one. The top level
// runs every pass, so its plan names every hold.
func (rs *rankState) allocHolds() {
	top := &rs.levels[len(rs.levels)-1]
	for kind, fs := range rs.solid {
		for _, f := range fs {
			f.h = holds[[3]float32](top.passes[kind], len(rs.levels))
		}
	}
	for _, fl := range rs.fluid {
		fl.hChi = holds[float32](top.passes[earthmodel.RegionOuterCore], len(rs.levels))
		if top.shadow != nil {
			fl.accHold = make([]float32, fl.reg.NGlob)
		}
	}
}

// holds allocates, per hold level, a slot per pass position for each
// pass that names the level.
func holds[T any](passes []newmarkPass, levels int) [][]T {
	h := make([][]T, levels)
	for _, ps := range passes {
		if ps.hold > 0 {
			h[ps.hold] = make([]T, ps.n)
		}
	}
	return h
}
