package solver

import (
	"testing"

	"specglobe/internal/mpi"
)

// The halo routes of a 24-rank globe under LTS: at every level of every
// halo set the peers ascend, both ends of an exchange list the same
// number of points per region part (so the wire layouts match without
// negotiation), the top level aliases the plan's edge lists (no copy),
// and the lower levels really drop points and peers.
func TestHaloRoutes(t *testing.T) {
	g, model := coupledGlobe(t, 4, 2)
	opts := Options{Steps: 1, LTS: true, CombinedSolidHalo: true}.withDefaults()
	sim := globeSim(t, g, model, opts)
	dt := stableDt(sim.Locals, opts.Courant)
	p := newPool(1)
	defer p.close()
	states := make([]*rankState, len(sim.Locals))
	mpi.NewWorldWith(len(sim.Locals), opts.Network).Run(func(c *mpi.Comm) {
		states[c.Rank()] = newRankState(c, sim, &opts, dt, nil, nil, p, newKernels(opts.Kernel), 1)
	})
	if len(states) != 24 {
		t.Fatalf("%d ranks, want 24", len(states))
	}

	levels := states[0].lts.levels
	if levels < 2 {
		t.Fatalf("%d LTS levels: the masked routes are not exercised", levels)
	}
	points := func(set, li int) (n, peers int) {
		for _, rs := range states {
			for _, pr := range rs.halo[set].levels[li] {
				n += pr.n
			}
			peers += len(rs.halo[set].levels[li])
		}
		return n, peers
	}
	for set := 0; set < nHaloSets; set++ {
		for li := 0; li < levels; li++ {
			for r, rs := range states {
				rt := rs.halo[set].levels[li]
				for i, pr := range rt {
					if i > 0 && rt[i-1].peer >= pr.peer {
						t.Fatalf("set %d level %d rank %d: peers not ascending", set, li, r)
					}
					if pr.n == 0 {
						t.Errorf("set %d level %d rank %d: empty peer %d kept", set, li, r, pr.peer)
					}
					var back *routePeer
					other := states[pr.peer].halo[set].levels[li]
					for j := range other {
						if other[j].peer == r {
							back = &other[j]
						}
					}
					if back == nil {
						t.Fatalf("set %d level %d: rank %d sends to %d, which does not send back", set, li, r, pr.peer)
					}
					for k := range pr.parts {
						if len(pr.parts[k]) != len(back.parts[k]) {
							t.Errorf("set %d level %d ranks %d/%d part %d: %d vs %d points",
								set, li, r, pr.peer, k, len(pr.parts[k]), len(back.parts[k]))
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
			t.Errorf("set %d: top level routes %d points, the plan has %d", set, top, plan)
		}
	}

	// Top level: the very slices of the plan.
	for r, rs := range states {
		for kind := 0; kind < 3; kind++ {
			rt := rs.fullRoute(kind)
			if len(rt) != len(rs.plan.Edges[kind]) {
				t.Fatalf("rank %d kind %d: %d peers for %d edges", r, kind, len(rt), len(rs.plan.Edges[kind]))
			}
			for i, e := range rs.plan.Edges[kind] {
				if got := rt[i].parts[0]; rt[i].peer != e.Peer || &got[0] != &e.Idx[0] {
					t.Errorf("rank %d kind %d edge %d: top-level route does not alias HaloEdge.Idx", r, kind, i)
				}
			}
		}
	}

	lowN, lowPeers := points(haloSolid, 0)
	topN, topPeers := points(haloSolid, levels-1)
	t.Logf("combined solid route: level 0 %d points / %d peers, top %d points / %d peers", lowN, lowPeers, topN, topPeers)
	if lowN >= topN {
		t.Errorf("level 0 exchanges %d points, top level %d: nothing is masked", lowN, topN)
	}
}
