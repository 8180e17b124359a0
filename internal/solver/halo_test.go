package solver

import (
	"reflect"
	"slices"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/mpi"
)

// rankStates builds every rank's state of sim, as a run does before its
// first step (the mass assembly included).
func rankStates(t testing.TB, sim *Simulation) []*rankState {
	t.Helper()
	opts := sim.Opts.withDefaults()
	dt := mesh.StableDt(sim.Locals, mesh.Courant)
	p := newPool(1, 1)
	defer p.close()
	states := make([]*rankState, len(sim.Locals))
	mpi.NewWorldWith(len(sim.Locals), opts.Network).Run(func(c *mpi.Comm) {
		states[c.Rank()] = newRankState(c, sim, &opts, dt, nil, nil, p, newKernels(opts.Kernel), 1)
	})
	return states
}

// The step plan of a 24-rank globe. There are two halo sets, the outer
// core and the crust/mantle with the inner core, and each region travels
// in exactly one. Every set's peers ascend and both ends of an exchange
// list the same number of points per region part (so the wire layouts
// match without negotiation); a route has one peer per neighbor of any
// of its regions, and each part is the halo plan's edge list itself (no
// copy); the sweeps are the overlap colour classes.
func TestHaloRoutes(t *testing.T) {
	cm, oc, ic := int(earthmodel.RegionCrustMantle), int(earthmodel.RegionOuterCore), int(earthmodel.RegionInnerCore)
	if nHaloSets != 2 || !slices.Equal(haloSetKinds[haloFluid], []int{oc}) || !slices.Equal(haloSetKinds[haloSolid], []int{cm, ic}) {
		t.Fatalf("halo sets %v: want the outer core alone and the two solid regions together", haloSetKinds)
	}
	g, model := coupledGlobe(t, 4, 2)
	states := rankStates(t, globeSim(t, g, model, Options{Steps: 1}))
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
			neighbors := map[int]bool{}
			for k, kind := range haloSetKinds[set] {
				for _, e := range rs.plan.Edges[kind] {
					planned += len(e.Idx)
					if len(e.Idx) == 0 {
						continue
					}
					neighbors[e.Peer] = true
					i := slices.IndexFunc(rt, func(pr routePeer) bool { return pr.peer == e.Peer })
					if i < 0 || &rt[i].parts[k][0] != &e.Idx[0] {
						t.Errorf("set %d rank %d peer %d: part %d does not alias HaloEdge.Idx", set, r, e.Peer, k)
					}
				}
			}
			if len(rt) != len(neighbors) {
				t.Errorf("set %d rank %d: %d peers for %d neighbors", set, r, len(rt), len(neighbors))
			}
		}
		if routed != planned {
			t.Errorf("set %d: routes %d points, the plan has %d", set, routed, planned)
		}
	}

	for r, rs := range states {
		colors, ov := mesh.BuildColoring(rs.local), mesh.BuildOverlap(rs.local, rs.plan)
		for kind, reg := range rs.local.Regions {
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

// One message per neighbor per exchange: the mass assembly and every
// step post each halo set once, so a run sends (steps + 1) times the
// summed peers of every rank's fluid and solid routes. On the 24-rank
// globe, where the crust/mantle and inner-core neighbors differ, the
// solid set sends one message to each neighbor of either region.
func TestOneMessagePerNeighbor(t *testing.T) {
	g, model := coupledGlobe(t, 4, 2)
	sim := globeSim(t, g, model, Options{Steps: 3})
	var peers int64
	for _, rs := range rankStates(t, sim) {
		peers += int64(len(rs.routes[haloFluid]) + len(rs.routes[haloSolid]))
	}
	res, err := Run(sim)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(sim.Opts.Steps+1) * peers; res.MPI.Messages != want {
		t.Errorf("%d messages, want %d: %d steps and the mass assembly, %d route peers each",
			res.MPI.Messages, want, sim.Opts.Steps, peers)
	}
}

// A steady-state halo exchange allocates nothing: every rank of the
// 6-rank globe posts and finishes both of its halo sets, and once
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
