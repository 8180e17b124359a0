package solver

import (
	"reflect"
	"testing"

	"specglobe/internal/mesh"
	"specglobe/internal/mpi"
)

// The step plan of a 24-rank globe. Every halo set's peers ascend and
// both ends of an exchange list the same number of points per region
// part (so the wire layouts match without negotiation); each route
// lists the halo plan's edge lists themselves (no copy), and the sweeps
// are the overlap colour classes.
func TestHaloRoutes(t *testing.T) {
	g, model := coupledGlobe(t, 4, 2)
	opts := Options{Steps: 1, CombinedSolidHalo: true}.withDefaults()
	sim := globeSim(t, g, model, opts)
	dt := mesh.StableDt(sim.Locals, mesh.Courant)
	p := newPool(1, 1)
	states := make([]*rankState, len(sim.Locals))
	mpi.NewWorldWith(len(sim.Locals), opts.Network).Run(func(c *mpi.Comm) {
		states[c.Rank()] = newRankState(c, sim, &opts, dt, nil, nil, p, newKernels(opts.Kernel), 1)
	})
	p.close()
	if len(states) != 24 {
		t.Fatalf("%d ranks, want 24", len(states))
	}
	for set := 0; set < nHaloSets; set++ {
		routed, planned := 0, 0
		for r, rs := range states {
			rt := rs.routes[set]
			for i, pr := range rt {
				if i > 0 && rt[i-1].peer >= pr.peer {
					t.Fatalf("set %d rank %d: peers not ascending", set, r)
				}
				if pr.n == 0 {
					t.Errorf("set %d rank %d: empty peer %d kept", set, r, pr.peer)
				}
				var back *routePeer
				other := states[pr.peer].routes[set]
				for j := range other {
					if other[j].peer == r {
						back = &other[j]
					}
				}
				if back == nil {
					t.Fatalf("set %d: rank %d sends to %d, which does not send back", set, r, pr.peer)
				}
				for k := range pr.parts {
					if len(pr.parts[k]) != len(back.parts[k]) {
						t.Errorf("set %d ranks %d/%d part %d: %d vs %d points",
							set, r, pr.peer, k, len(pr.parts[k]), len(back.parts[k]))
					}
				}
				routed += pr.n
			}
			for _, kind := range haloSetKinds[set] {
				for _, e := range rs.plan.Edges[kind] {
					planned += len(e.Idx)
				}
			}
		}
		if routed != planned {
			t.Errorf("set %d: routes %d points, the plan has %d", set, routed, planned)
		}
	}

	for r, rs := range states {
		colors, ov := mesh.BuildColoring(rs.local), mesh.BuildOverlap(rs.local, rs.plan)
		for kind, reg := range rs.local.Regions {
			if len(rs.routes[kind]) != len(rs.plan.Edges[kind]) {
				t.Fatalf("rank %d kind %d: %d peers for %d edges", r, kind, len(rs.routes[kind]), len(rs.plan.Edges[kind]))
			}
			for i, e := range rs.plan.Edges[kind] {
				if got := rs.routes[kind][i].parts[0]; rs.routes[kind][i].peer != e.Peer || &got[0] != &e.Idx[0] {
					t.Errorf("rank %d kind %d edge %d: route does not alias HaloEdge.Idx", r, kind, i)
				}
			}
			if reg == nil || reg.NSpec == 0 {
				continue
			}
			want := sweepClasses{colors.Classes(kind, ov.Outer[kind]), colors.Classes(kind, ov.Inner[kind])}
			if !reflect.DeepEqual(rs.sweeps[kind], want) {
				t.Errorf("rank %d kind %d: the sweeps are not the overlap classes", r, kind)
			}
		}
	}
}

// A steady-state halo exchange allocates nothing: every rank of the
// 6-rank globe posts and finishes each of its four halo sets, and once
// the first round has left each rank its peers' payloads, every message
// is packed into the payload last received from its peer and the
// requests are recycled.
func TestSteadyHaloExchangeAllocatesNothing(t *testing.T) {
	g, model := coupledGlobe(t, 4, 1)
	opts := Options{Steps: 1}.withDefaults()
	sim := globeSim(t, g, model, opts)
	dt := mesh.StableDt(sim.Locals, mesh.Courant)
	n := len(sim.Locals)
	p := newPool(1, n)
	defer p.close()
	start, done := make([]chan struct{}, n), make(chan struct{}, n)
	for r := range start {
		start[r] = make(chan struct{})
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		mpi.NewWorldWith(n, opts.Network).Run(func(c *mpi.Comm) {
			rs := newRankState(c, sim, &opts, dt, nil, nil, p, newKernels(opts.Kernel), 1)
			for range start[c.Rank()] {
				for set := range rs.halo {
					h := &rs.halo[set]
					rs.finish(rs.beginExchange(set, rs.ns, h.nc, h.arr))
				}
				done <- struct{}{}
			}
		})
	}()
	round := func() {
		for _, s := range start {
			s <- struct{}{}
		}
		for range start {
			<-done
		}
	}
	round()
	round()
	if a := testing.AllocsPerRun(20, round); a != 0 {
		t.Errorf("a steady exchange round of %d ranks allocates %v times", n, a)
	}
	for _, s := range start {
		close(s)
	}
	<-finished
}
