package solver

import (
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
// (point list, hold level, rate-scaled dt), the points whose
// acceleration is final, the fluid division lists and one halo route per
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
//     the previous firing: captured into hold arrays by the corrector
//     (the last reader of the clean value);
//   - the solid traction reads the fluid potential's second derivative
//     at CMB/ICB face points every step: a shadow array (accHold)
//     refreshed after the fluid mass division keeps the last fired
//     value visible while the fluid slot cycles through garbage.
//
// Halo exchanges stay tag-aligned across ranks at every step; only the
// payloads shrink: each level's route of a halo set lists the shared
// points that fire at that level (both endpoints agree because point
// rates are max-reconciled across ranks at startup, and HaloEdge.Idx is
// key-sorted identically on both ends). A peer with no firing points is
// dropped from the level's route entirely — a real message-count saving
// on coarse steps.

// pointSet is n points of a region: those of list, or the full range
// [0, n) when list is nil.
type pointSet struct {
	list []int32
	n    int
}

// newmarkPass is one Newmark point pass: its points advance with dt, and
// hold > 0 names the per-field hold arrays parallel to list (hx[hold],
// hChi[hold], ...) that carry the acceleration across dormant steps.
type newmarkPass struct {
	pointSet
	hold int
	dt   float32
}

// levelPlan is everything one spoke of the wheel runs; [3] arrays are
// indexed by region kind.
type levelPlan struct {
	sweeps [3]sweepClasses  // the outer/inner colour classes that fire
	passes [3][]newmarkPass // the Newmark passes, ascending rate
	final  [3]pointSet      // the points whose acceleration is final
	// face and rest are the fluid points mass-divided before the solid
	// traction and under the solid halo; shadow lists the face points
	// copied into the traction shadow (nil unless the fluid is
	// multi-rate).
	face, rest, shadow []int32
	routes             [nHaloSets]haloRoute
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
		all := pointSet{n: reg.NGlob}
		base.passes[kind] = []newmarkPass{{pointSet: all, dt: float32(rs.dt)}}
		base.final[kind] = all
		if reg.IsFluid() {
			base.face = couplingFacePoints(rs.local, reg.NGlob)
			base.rest = complementSorted(base.face, reg.NGlob)
		}
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
// level li fires the clusters and points of rate at most 2^li. Every
// multi-rate region gets one pass per non-empty exact-rate point list up
// to the level, with its rate-scaled dt and hold level. The top level's
// routes are the base plan's (every point fires there).
//
//specfem:noaccount one-time setup: the float math is the rate-scaled dt of each pass
func (rs *rankState) wheelLevels(base *levelPlan) []levelPlan {
	clus := rs.clus
	n := 1
	for r := int32(1); r < clus.MaxRate; r *= 2 {
		n++
	}
	var exact, upTo [3][][]int32
	for kind := range exact {
		exact[kind], upTo[kind] = ratePoints(clus.PointRate[kind], n)
	}
	oc := earthmodel.RegionOuterCore
	levels := make([]levelPlan, n)
	for li := range levels {
		rate := int32(1) << uint(li)
		lp := *base
		for kind := range exact {
			if clus.ElemsUpTo(kind, rate) != nil {
				lp.sweeps[kind] = rs.levelSweeps(kind, rate)
			}
			if exact[kind] == nil {
				continue
			}
			lp.passes[kind] = nil
			for hold, list := range exact[kind][:li+1] {
				if len(list) > 0 {
					dt := float32(rs.dt) * float32(int32(1)<<uint(hold))
					lp.passes[kind] = append(lp.passes[kind], newmarkPass{pointSet{list, len(list)}, hold, dt})
				}
			}
			if up := upTo[kind][li]; up != nil {
				lp.final[kind] = pointSet{up, len(up)}
			}
		}
		if exact[oc] != nil {
			pr := clus.PointRate[oc]
			lp.face = upToRate(base.face, pr, rate)
			lp.rest = upToRate(base.rest, pr, rate)
			lp.shadow = lp.face
		}
		if li < n-1 {
			lp.routes = rs.levelRoutes(&clus.PointRate, rate)
		}
		levels[li] = lp
	}
	return levels
}

// ratePoints bins a region's points by rate: exact[li] lists the points
// of rate exactly 2^li, upTo[li] those of rate at most 2^li, ascending.
// upTo[li] is nil when it would hold every point — or none, so a level at
// which nothing of the region fires still divides the whole region's
// accelerations. Both are nil when no point has a rate above 1.
func ratePoints(pr []int32, levels int) (exact, upTo [][]int32) {
	if !slices.ContainsFunc(pr, func(r int32) bool { return r > 1 }) {
		return nil, nil
	}
	exact, upTo = make([][]int32, levels), make([][]int32, levels)
	for li := range exact {
		rate := int32(1) << uint(li)
		var up []int32
		for g, r := range pr {
			if r == rate || r == 0 && rate == 1 {
				exact[li] = append(exact[li], int32(g))
			}
			if r <= rate {
				up = append(up, int32(g))
			}
		}
		if len(up) < len(pr) {
			upTo[li] = up
		}
	}
	return exact, upTo
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
	holds := func(passes []newmarkPass) [][]float32 {
		h := make([][]float32, len(rs.levels))
		for _, ps := range passes {
			if ps.hold > 0 {
				h[ps.hold] = make([]float32, ps.n)
			}
		}
		return h
	}
	for kind, fs := range rs.solid {
		for _, f := range fs {
			f.hx, f.hy, f.hz = holds(top.passes[kind]), holds(top.passes[kind]), holds(top.passes[kind])
		}
	}
	for s, fl := range rs.fluid {
		fl.hChi = holds(top.passes[earthmodel.RegionOuterCore])
		if top.shadow != nil {
			fl.accHold = make([]float32, fl.reg.NGlob)
			rs.chiSrc[s] = fl.accHold
		}
	}
}
