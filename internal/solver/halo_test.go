package solver

import (
	"reflect"
	"testing"

	"specglobe/internal/mesh"
	"specglobe/internal/mpi"
)

// The level plans of a 24-rank globe, with LTS and without. At every
// level of every halo set the peers ascend and both ends of an exchange
// list the same number of points per region part (so the wire layouts
// match without negotiation). The plan that fires everything — the only
// one without LTS, the top one with it — sweeps the overlap colour
// classes, covers every point of a region with its passes (without LTS
// in one full-range pass), and routes the plan's edge lists themselves
// (no copy); under LTS the lower levels really drop points and peers,
// and every level's passes fire exactly its points.
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
				n := 0
				for _, ps := range top.passes[kind] {
					n += ps.n
				}
				if n != reg.NGlob || !lts && (len(top.passes[kind]) != 1 || !wholeRange(top.passes[kind][0], reg.NGlob)) {
					t.Errorf("lts=%v rank %d kind %d: %d top passes fire %d of %d points", lts, r, kind, len(top.passes[kind]), n, reg.NGlob)
				}
				if !lts {
					continue
				}
				// Every level's passes fire exactly the points of rate at
				// most the level's: the step's tail finalises them and
				// nothing else.
				for li := range rs.levels {
					rate := int32(1) << li
					want, fired := 0, 0
					for _, pr := range rs.clus.PointRate[kind] {
						if max(pr, 1) <= rate {
							want++
						}
					}
					for _, ps := range rs.levels[li].passes[kind] {
						for _, s := range ps.spans {
							for i := s.i; i < s.i+s.n; i++ {
								if max(rs.clus.PointRate[kind][i], 1) > rate {
									t.Errorf("rank %d kind %d level %d: point %d of rate %d fires", r, kind, li, i, rs.clus.PointRate[kind][i])
								}
							}
							fired += int(s.n)
						}
					}
					if fired != want {
						t.Errorf("rank %d kind %d level %d: passes fire %d of the %d points of rate <= %d", r, kind, li, fired, want, rate)
					}
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

// wholeRange reports whether a pass's spans tile [0, n) in order, each
// span's hold slots at its points.
func wholeRange(ps newmarkPass, n int) bool {
	next := int32(0)
	for _, s := range ps.spans {
		if s.i != next || s.at != next || s.n < 1 || s.n > minPointChunk {
			return false
		}
		next += s.n
	}
	return ps.n == n && next == int32(n)
}
