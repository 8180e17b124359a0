package solver

import (
	"sort"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

// Clustered local time stepping (the cluster wheel). The mesh layer
// bins elements into rate-2^k clusters (mesh.BuildClusters); the solver
// turns the binning into a wheel over the global step counter: at step
// n, exactly the clusters whose rate divides n fire — rate-1 every
// step, rate-2 every other step, rate-4 every fourth. A global point
// advances at the maximum rate of its touching elements, so whenever a
// point fires, every element contributing to it fires too and the
// assembled force is fully fresh.
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
// payloads shrink: each halo set has one precomputed route per level
// listing the shared points that fire at that level (both endpoints
// agree because point rates are max-reconciled across ranks at startup,
// and HaloEdge.Idx is key-sorted identically on both ends). A peer with
// no firing points is dropped from the level's route entirely — a real
// message-count saving on coarse steps.
//
// Single-rate regions keep the existing full-range code paths (the
// level lists alias the plain sweep classes and the routes alias the
// unmasked edge lists), so a clustering that degenerates to rate 1
// everywhere is bit-identical to the single-rate scheduler.

// ltsPoints holds one region's per-level point lists.
type ltsPoints struct {
	// single is true when every point has rate 1; the solver then uses
	// the existing full-range loops (bit-identical degenerate case).
	single bool
	// byRate[li] lists the points with rate exactly 2^li, ascending.
	byRate [][]int32
	// upTo[li] lists the points with rate <= 2^li, ascending; a nil
	// entry means "all points" (use the full-range loop).
	upTo [][]int32
}

// allocHolds allocates per-level hold arrays parallel to a region's
// exact-rate point lists: hold[li][q] keeps the last fired acceleration
// of byRate[li][q], captured by the corrector and read by the next
// predictor. li = 0 needs no hold (rate-1 accelerations are never
// polluted between corrector and predictor). One set per wavefield —
// held state is dynamic, not mesh-static.
func allocHolds(byRate [][]int32) [][]float32 {
	out := make([][]float32, len(byRate))
	for li := 1; li < len(byRate); li++ {
		out[li] = make([]float32, len(byRate[li]))
	}
	return out
}

// ltsState is the per-rank cluster-wheel state.
type ltsState struct {
	clus   *mesh.Clustering
	levels int // number of rate levels: log2(MaxRate)+1
	level  int // current step's firing level index
	pts    [3]ltsPoints
	// sweeps[kind][li] are the color classes of the merged element
	// lists with rate <= 2^li, one sweepClasses per level (aliases the
	// plain rankState sweeps when every element qualifies).
	sweeps [3][]sweepClasses
	// faceUpTo/restUpTo[li]: fluid coupling-face points and the
	// remaining fluid points with rate <= 2^li.
	faceUpTo, restUpTo [][]int32
	// counts is the local element count per rate (for Result.LTS).
	counts map[int32]int
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

// ltsPts returns the region's LTS point lists, or nil when LTS is off.
func (rs *rankState) ltsPts(kind int) *ltsPoints {
	if rs.lts == nil {
		return nil
	}
	return &rs.lts.pts[kind]
}

// firingPasses calls pass once per point set whose Newmark update runs
// this step and returns the number of points covered: the full range
// [0, nglob) (list nil) at the global dt for a single-rate region; under
// LTS each non-empty exact-rate list up to the firing level, with its
// rate-scaled dt. li > 0 names the hold arrays parallel to list.
func (rs *rankState) firingPasses(kind, nglob int, pass func(list []int32, n, li int, dt float32)) int {
	dt := float32(rs.dt)
	pts := rs.ltsPts(kind)
	if pts == nil || pts.single {
		pass(nil, nglob, 0, dt)
		return nglob
	}
	n := 0
	for li := 0; li <= rs.lts.level; li++ {
		if list := pts.byRate[li]; len(list) > 0 {
			pass(list, len(list), li, dt*float32(int32(1)<<uint(li)))
			n += len(list)
		}
	}
	return n
}

// sweepsFor returns the outer/inner element classes the force stage
// sweeps this step: the region's own without LTS, the current level's
// merged classes with it.
func (rs *rankState) sweepsFor(kind int) *sweepClasses {
	if rs.lts == nil {
		return &rs.sweeps[kind]
	}
	return &rs.lts.sweeps[kind][rs.lts.level]
}

// reconcilePointRates max-exchanges the halo points' rates so both ends
// of every edge agree: a point's local rate can miss a coarser element
// on the remote side. One round suffices — the halo builder creates an
// edge for every rank pair sharing a point, so each rank receives every
// other sharer's value directly. Every rank consumes the same tags.
func (rs *rankState) reconcilePointRates() {
	for kind := 0; kind < 3; kind++ {
		pr := rs.lts.clus.PointRate[kind]
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

// initLTS finishes the cluster-wheel setup after the point rates are
// reconciled: per-level point lists and holds, merged sweep classes,
// halo routes, and the fluid traction shadow. Starts at the top level
// (step 0 fires everything).
func (rs *rankState) initLTS() {
	lts := rs.lts
	clus := lts.clus
	clus.RefreshInterfaces(rs.local)
	lts.levels = 1
	for r := int32(1); r < clus.MaxRate; r *= 2 {
		lts.levels++
	}
	lts.level = lts.levels - 1
	lts.counts = clus.RateCounts()

	for kind := 0; kind < 3; kind++ {
		reg := rs.local.Regions[kind]
		lts.sweeps[kind] = make([]sweepClasses, lts.levels)
		if reg == nil || reg.NSpec == 0 {
			lts.pts[kind].single = true
			continue
		}
		lts.pts[kind] = buildLTSPoints(clus.PointRate[kind], lts.levels)
		rs.buildLTSSweeps(kind)
		if !lts.pts[kind].single && !reg.IsFluid() {
			for _, f := range rs.solid[kind] {
				f.hx = allocHolds(lts.pts[kind].byRate)
				f.hy = allocHolds(lts.pts[kind].byRate)
				f.hz = allocHolds(lts.pts[kind].byRate)
			}
		}
	}
	rs.buildRoutes(lts.levels, &clus.PointRate)

	// Fluid traction shadow: the solid reads the fluid potential's
	// second derivative at CMB/ICB face points every step, so a
	// multi-rate fluid keeps each wavefield's last fired values visible
	// in its accHold.
	if fls := rs.fluid; fls != nil && !lts.pts[earthmodel.RegionOuterCore].single {
		pr := clus.PointRate[earthmodel.RegionOuterCore]
		byRate := lts.pts[earthmodel.RegionOuterCore].byRate
		for s, fl := range fls {
			fl.hChi = allocHolds(byRate)
			fl.accHold = make([]float32, fl.reg.NGlob)
			rs.chiSrc[s] = fl.accHold
		}
		lts.faceUpTo = filterByRate(rs.fluidFace, pr, lts.levels)
		lts.restUpTo = filterByRate(rs.fluidRest, pr, lts.levels)
	}
}

// buildLTSPoints bins a region's points by rate into per-level lists.
func buildLTSPoints(pr []int32, levels int) ltsPoints {
	p := ltsPoints{
		byRate: make([][]int32, levels),
		upTo:   make([][]int32, levels),
	}
	single := true
	for _, r := range pr {
		if r > 1 {
			single = false
			break
		}
	}
	p.single = single
	if single {
		return p
	}
	for li := 0; li < levels; li++ {
		rate := int32(1) << uint(li)
		var exact, upto []int32
		for g, r := range pr {
			if r == rate || r == 0 && rate == 1 {
				exact = append(exact, int32(g))
			}
			if r <= rate {
				upto = append(upto, int32(g))
			}
		}
		p.byRate[li] = exact
		if len(upto) == len(pr) {
			upto = nil // full range
		}
		p.upTo[li] = upto
	}
	return p
}

// buildLTSSweeps precomputes the merged color classes per level: the
// outer and inner elements of every cluster with rate <= 2^li. Levels
// where every element fires alias the existing classes (the degenerate
// fast path).
func (rs *rankState) buildLTSSweeps(kind int) {
	lts := rs.lts
	clus := lts.clus
	for li := 0; li < lts.levels; li++ {
		rate := int32(1) << uint(li)
		if clus.ElemsUpTo(kind, rate) == nil {
			lts.sweeps[kind][li] = rs.sweeps[kind]
			continue
		}
		merge := func(get func(*mesh.Cluster) []int32) [][]int32 {
			out := []int32{}
			for ci := range clus.Clusters[kind] {
				cl := &clus.Clusters[kind][ci]
				if cl.Rate <= rate {
					out = append(out, get(cl)...)
				}
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return rs.colors.Classes(kind, out)
		}
		lts.sweeps[kind][li] = sweepClasses{
			outer: merge(func(cl *mesh.Cluster) []int32 { return cl.Outer }),
			inner: merge(func(cl *mesh.Cluster) []int32 { return cl.Inner }),
		}
	}
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

// filterByRate returns, per level, the subset of pts whose rate is at
// most 2^li (ascending, since pts is ascending).
func filterByRate(pts []int32, pr []int32, levels int) [][]int32 {
	out := make([][]int32, levels)
	for li := range out {
		out[li] = upToRate(pts, pr, int32(1)<<uint(li))
	}
	return out
}

// refreshTractionShadow copies each wavefield's freshly mass-divided
// fluid chiDdot of the firing face points into its traction shadow.
func (rs *rankState) refreshTractionShadow() {
	lts := rs.lts
	if lts == nil || rs.fluid == nil || rs.fluid[0].accHold == nil {
		return
	}
	face := lts.faceUpTo[lts.level]
	for _, fl := range rs.fluid {
		src := fl.chiDdot
		for _, p := range face {
			fl.accHold[p] = src[p]
		}
	}
}
