package solver

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"specglobe/internal/mesh"
	"specglobe/internal/mpi"
)

// The level plans of a 24-rank globe, with LTS and without. At every
// level of every halo set the peers ascend and both ends of an exchange
// list the same number of points per region part (so the wire layouts
// match without negotiation). The plan that fires everything — the only
// one without LTS, the top one with it — sweeps the overlap colour
// classes, covers every point of a region with its spans, and routes
// the plan's edge lists themselves (no copy); under LTS the lower levels
// really drop points and peers. Every level's spans fire exactly its
// points, each with its rate times dt, and exactly the multi-rate
// regions keep held accelerations (none without LTS).
func TestHaloRoutes(t *testing.T) {
	g, model := coupledGlobe(t, 4, 2)
	for _, lts := range []bool{true, false} {
		opts := Options{Steps: 1, LTS: lts, CombinedSolidHalo: true}.withDefaults()
		sim := globeSim(t, g, model, opts)
		dt := stableDt(sim.Locals, opts.Courant)
		p := newPool(1)
		states := make([]*rankState, len(sim.Locals))
		mpi.NewWorldWith(len(sim.Locals), opts.Network).Run(func(c *mpi.Comm) {
			states[c.Rank()] = newRankState(c, sim, &opts, dt, nil, nil, p, newKernels(opts.Kernel), 1)
		})
		p.close()
		if len(states) != 24 {
			t.Fatalf("%d ranks, want 24", len(states))
		}
		levels := len(states[0].levels)
		if lts && levels < 2 || !lts && levels != 1 {
			t.Fatalf("lts=%v: %d levels", lts, levels)
		}
		points := func(set, li int) (n, peers int) {
			for _, rs := range states {
				for _, pr := range rs.levels[li].routes[set] {
					n += pr.n
				}
				peers += len(rs.levels[li].routes[set])
			}
			return n, peers
		}
		for set := 0; set < nHaloSets; set++ {
			for li := 0; li < levels; li++ {
				for r, rs := range states {
					rt := rs.levels[li].routes[set]
					for i, pr := range rt {
						if i > 0 && rt[i-1].peer >= pr.peer {
							t.Fatalf("lts=%v set %d level %d rank %d: peers not ascending", lts, set, li, r)
						}
						if pr.n == 0 {
							t.Errorf("lts=%v set %d level %d rank %d: empty peer %d kept", lts, set, li, r, pr.peer)
						}
						var back *routePeer
						other := states[pr.peer].levels[li].routes[set]
						for j := range other {
							if other[j].peer == r {
								back = &other[j]
							}
						}
						if back == nil {
							t.Fatalf("lts=%v set %d level %d: rank %d sends to %d, which does not send back", lts, set, li, r, pr.peer)
						}
						for k := range pr.parts {
							if len(pr.parts[k]) != len(back.parts[k]) {
								t.Errorf("lts=%v set %d level %d ranks %d/%d part %d: %d vs %d points",
									lts, set, li, r, pr.peer, k, len(pr.parts[k]), len(back.parts[k]))
							}
						}
					}
				}
			}
			top, _ := points(set, levels-1)
			plan := 0
			for _, rs := range states {
				for _, kind := range haloSetKinds[set] {
					for _, e := range rs.plan.Edges[kind] {
						plan += len(e.Idx)
					}
				}
			}
			if top != plan {
				t.Errorf("lts=%v set %d: top level routes %d points, the plan has %d", lts, set, top, plan)
			}
		}

		for r, rs := range states {
			top := &rs.levels[levels-1]
			ov := mesh.BuildOverlap(rs.local, rs.plan)
			for kind, reg := range rs.local.Regions {
				if len(top.routes[kind]) != len(rs.plan.Edges[kind]) {
					t.Fatalf("lts=%v rank %d kind %d: %d peers for %d edges", lts, r, kind, len(top.routes[kind]), len(rs.plan.Edges[kind]))
				}
				for i, e := range rs.plan.Edges[kind] {
					if got := top.routes[kind][i].parts[0]; top.routes[kind][i].peer != e.Peer || &got[0] != &e.Idx[0] {
						t.Errorf("lts=%v rank %d kind %d edge %d: top route does not alias HaloEdge.Idx", lts, r, kind, i)
					}
				}
				if reg == nil || reg.NSpec == 0 {
					continue
				}
				want := sweepClasses{rs.colors.Classes(kind, ov.Outer[kind]), rs.colors.Classes(kind, ov.Inner[kind])}
				if !reflect.DeepEqual(top.sweeps[kind], want) {
					t.Errorf("lts=%v rank %d kind %d: top classes are not the overlap classes", lts, r, kind)
				}
				var pr []int32
				if lts {
					pr = rs.clus.PointRate[kind]
				}
				for li, lp := range rs.levels {
					if err := checkSpans(lp.spans[kind], lp.fired[kind], pr, reg.NGlob, int32(1)<<li, float32(dt)); err != nil {
						t.Errorf("lts=%v rank %d kind %d level %d: %v", lts, r, kind, li, err)
					}
				}
				multi := lts && slices.ContainsFunc(pr, func(r int32) bool { return r > 1 })
				held := rs.fluid != nil && rs.fluid[0].held != nil
				if fs := rs.solid[kind]; fs != nil {
					held = fs[0].held != nil
				}
				if held != multi {
					t.Errorf("lts=%v rank %d kind %d: held kept %v, multi-rate %v", lts, r, kind, held, multi)
				}
			}
		}
		if lts {
			lowN, lowPeers := points(haloSolid, 0)
			topN, topPeers := points(haloSolid, levels-1)
			t.Logf("combined solid route: level 0 %d points / %d peers, top %d points / %d peers", lowN, lowPeers, topN, topPeers)
			if lowN >= topN {
				t.Errorf("level 0 exchanges %d points, top level %d: nothing is masked", lowN, topN)
			}
		}
	}
}

// Held accelerations are the price of a dormant point only: a uniform
// box at its own stable dt clusters to rate 1 everywhere, and with LTS
// on its fields keep none.
func TestNoHeldWithoutDormantPoints(t *testing.T) {
	b := buildBox(t, 4, 2, 40e3)
	opts := Options{Steps: 1, LTS: true}.withDefaults()
	sim := &Simulation{Locals: b.Locals, Plans: b.Plans, Opts: opts}
	p := newPool(1)
	defer p.close()
	mpi.NewWorldWith(len(sim.Locals), opts.Network).Run(func(c *mpi.Comm) {
		rs := newRankState(c, sim, &opts, stableDt(sim.Locals, opts.Courant), nil, nil, p, newKernels(opts.Kernel), 1)
		for kind, fs := range rs.solid {
			for _, f := range fs {
				if f.held != nil {
					t.Errorf("rank %d kind %d: rate-1 clustering keeps held accelerations", c.Rank(), kind)
				}
			}
		}
	})
}

// checkSpans reports how spans fail to list the points of rate at most
// rate (pr nil: every point, at rate 1; rate 0 counts as 1) among nglob:
// each in exactly one span, ascending, at most minPointChunk long, fired
// points in all, and the span's dt that point's rate times dt — so no
// span mixes two rates.
func checkSpans(spans []span, fired int, pr []int32, nglob int, rate int32, dt float32) error {
	rateOf := func(g int32) int32 {
		if pr == nil {
			return 1
		}
		return max(pr[g], 1)
	}
	next, n := int32(0), 0
	for _, s := range append(spans, span{i: int32(nglob), n: 1}) {
		if s.i < next || s.n < 1 || s.n > minPointChunk {
			return fmt.Errorf("span [%d, %d) after point %d", s.i, s.i+s.n, next)
		}
		for g := next; g < s.i; g++ {
			if r := rateOf(g); r <= rate {
				return fmt.Errorf("point %d of rate %d does not fire", g, r)
			}
		}
		if s.i == int32(nglob) {
			break
		}
		for g := s.i; g < s.i+s.n; g++ {
			if r := rateOf(g); r > rate || s.dt != dt*float32(r) {
				return fmt.Errorf("point %d of rate %d fires with dt %g", g, r, s.dt)
			}
		}
		next, n = s.i+s.n, n+int(s.n)
	}
	if n != fired {
		return fmt.Errorf("spans cover %d points, the plan counts %d", n, fired)
	}
	return nil
}
