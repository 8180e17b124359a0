package solver

import (
	"fmt"
	"sort"
	"unsafe"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mpi"
)

// The halo exchange. Every cross-rank assembly — the fluid potential,
// the solid accelerations (per region or combined), the one-time mass
// matrices and the LTS point-rate reconciliation — is one call of
// beginExchange over a route precomputed at setup. The step loop builds
// no maps, sorts nothing and resolves no masks.
//
// Wire layout of one message, outermost to innermost: wavefield, region
// part, shared point, component — each point's components as adjacent in
// the message as in the state arrays. A single region with one
// component is the scalar exchange, with three the vector exchange, and
// the two solid regions back to back are the combined exchange of the
// paper ("handling crust mantle and inner core simultaneously").

// Halo sets: the region combinations that travel in one message. The
// single-region sets are indexed by region kind.
const (
	haloSolid = 3 // crust/mantle + inner core in one message per neighbor
	nHaloSets = 4
)

var haloSetKinds = [nHaloSets][]int{
	earthmodel.RegionCrustMantle: {int(earthmodel.RegionCrustMantle)},
	earthmodel.RegionOuterCore:   {int(earthmodel.RegionOuterCore)},
	earthmodel.RegionInnerCore:   {int(earthmodel.RegionInnerCore)},
	haloSolid:                    {int(earthmodel.RegionCrustMantle), int(earthmodel.RegionInnerCore)},
}

// routePeer is one neighbor of a route: parts[k] lists the local point
// indices region k of the set contributes, in the key-sorted order both
// ends share (empty when the region has no edge to this peer or nothing
// fires); n is their total.
type routePeer struct {
	peer  int
	parts [][]int32
	n     int
}

// haloRoute is the resolved exchange of one halo set at one wheel level
// (levelPlan.routes): the peers in ascending rank order, peers with
// nothing to exchange dropped (both ends agree, so neither sends).
type haloRoute []routePeer

// haloSet is one region combination's exchange state: the arrays the
// step loop assembles.
type haloSet struct {
	nc  int           // components per point
	arr [][][]float32 // arr[part][field], nc values per point; nil part = region absent
}

// buildRoute resolves one halo set against per-region edge point lists:
// idx[kind][edge] is the list that edge contributes (HaloEdge.Idx itself
// when unmasked).
func (rs *rankState) buildRoute(set int, idx *[3][][]int32) haloRoute {
	kinds := haloSetKinds[set]
	var peers []routePeer
	for k, kind := range kinds {
		for i := range rs.plan.Edges[kind] {
			peer := rs.plan.Edges[kind][i].Peer
			at := 0
			for at < len(peers) && peers[at].peer != peer {
				at++
			}
			if at == len(peers) {
				peers = append(peers, routePeer{peer: peer, parts: make([][]int32, len(kinds))})
			}
			peers[at].parts[k] = idx[kind][i]
			peers[at].n += len(idx[kind][i])
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].peer < peers[j].peer })
	var rt haloRoute
	for _, pr := range peers {
		if pr.n > 0 {
			rt = append(rt, pr)
		}
	}
	return rt
}

// flat views xyz triples as the float32 array they are in memory, three
// values per point — the form the exchange assembles.
func flat(a [][3]float32) []float32 {
	if len(a) == 0 {
		return nil
	}
	return unsafe.Slice(&a[0][0], 3*len(a))
}

// buildHaloSets points the four halo sets at the arrays the step loop
// assembles — the fluid potential accelerations and the solid
// accelerations, all wavefields in field order.
func (rs *rankState) buildHaloSets() {
	var accel [3][][]float32
	for kind, fs := range rs.solid {
		for _, f := range fs {
			accel[kind] = append(accel[kind], flat(f.a))
		}
	}
	for _, fl := range rs.fluid {
		oc := earthmodel.RegionOuterCore
		accel[oc] = append(accel[oc], fl.chiDdot)
	}
	for set := range rs.halo {
		h := &rs.halo[set]
		h.nc = 3
		if set == int(earthmodel.RegionOuterCore) {
			h.nc = 1
		}
		for _, kind := range haloSetKinds[set] {
			h.arr = append(h.arr, accel[kind])
		}
	}
}

// levelRoutes resolves every halo set's route over the shared points
// whose rate is at most rate (both ends agree once the rates are
// reconciled). A nil pointRate yields the unmasked routes, whose lists
// are the plan's HaloEdge.Idx themselves.
func (rs *rankState) levelRoutes(pointRate *[3][]int32, rate int32) (routes [nHaloSets]haloRoute) {
	var idx [3][][]int32
	for kind := range idx {
		for _, e := range rs.plan.Edges[kind] {
			pts := e.Idx
			if pointRate != nil {
				pts = upToRate(pts, pointRate[kind], rate)
			}
			idx[kind] = append(idx[kind], pts)
		}
	}
	for set := range routes {
		routes[set] = rs.buildRoute(set, &idx)
	}
	return routes
}

// fullRoute returns the set's unmasked route, the top level's — the
// one-time setup exchanges assemble every shared point.
func (rs *rankState) fullRoute(set int) haloRoute {
	return rs.levels[len(rs.levels)-1].routes[set]
}

// nextTag returns a unique message tag for the next halo exchange. All
// ranks execute the same sequence of exchanges per step, so sequence
// numbers agree across the world.
func (rs *rankState) nextTag() int {
	rs.seq++
	return rs.seq
}

// pendingExchange is an in-flight halo assembly. The local contributions
// for every shared point are already packed and sent; finish waits for
// the peers' payloads in route order and accumulates them.
type pendingExchange struct {
	rt     haloRoute
	nf, nc int
	arr    [][][]float32
	reqs   []*mpi.Request // the posted receives, parallel to rt
}

// beginExchange packs and sends this rank's contributions for nf
// wavefields of nc components per point (arr[part][field]) — one
// aggregated message per neighbor (nf× payload, 1× latency) — and posts
// the receives. Halo-point entries must be final before the call; only
// non-halo points may be written between begin and finish. It consumes
// a tag unconditionally, so sequence numbers stay aligned across ranks
// even when this rank has no peer (or no region) for the set. The
// receives are posted non-blocking *now*, so the virtual transfer time
// between here and finish is credited as hidden.
func (rs *rankState) beginExchange(rt haloRoute, nf, nc int, arr [][][]float32) *pendingExchange {
	tag := rs.nextTag()
	p := &pendingExchange{rt: rt, nf: nf, nc: nc, arr: arr, reqs: make([]*mpi.Request, 0, len(rt))}
	for _, pr := range rt {
		n := nf * nc * pr.n
		if cap(rs.packBuf) < n {
			rs.packBuf = make([]float32, n)
		}
		buf := rs.packBuf[:n]
		off := 0
		for s := 0; s < nf; s++ {
			for k, idx := range pr.parts {
				if len(idx) == 0 {
					continue
				}
				m := nc * len(idx)
				packPoints(buf[off:off+m], arr[k][s], idx, nc)
				off += m
			}
		}
		rs.comm.Isend(pr.peer, tag, buf) // copies the payload
		p.reqs = append(p.reqs, rs.comm.Irecv(pr.peer, tag))
	}
	return p
}

// finish completes the exchange: every peer's payload is added into the
// local arrays. Safe on a route without peers.
func (p *pendingExchange) finish() {
	for i, pr := range p.rt {
		got := p.reqs[i].Wait()
		off := 0
		for s := 0; s < p.nf; s++ {
			for k, idx := range pr.parts {
				if len(idx) == 0 {
					continue
				}
				n := p.nc * len(idx)
				addPoints(p.arr[k][s], got[off:off+n], idx, p.nc)
				off += n
			}
		}
	}
}

// packPoints copies the values of the points idx of a into buf, point
// by point. A point carries nc = 1 (scalar) or 3 (xyz triple) values; a
// triple moves as one unit.
func packPoints(buf, a []float32, idx []int32, nc int) {
	switch nc {
	case 1:
		for j, g := range idx {
			buf[j] = a[g]
		}
	case 3:
		for j, g := range idx {
			i := 3 * int(g)
			s, d := a[i:i+3:i+3], buf[3*j:3*j+3:3*j+3]
			d[0], d[1], d[2] = s[0], s[1], s[2]
		}
	default:
		panic(fmt.Sprintf("solver: halo point of %d values", nc))
	}
}

// addPoints adds a peer's payload got into the points idx of a, the
// inverse of packPoints.
//
//specfem:noaccount halo unpack adds are O(boundary points), charged as comm time like the pack
func addPoints(a, got []float32, idx []int32, nc int) {
	switch nc {
	case 1:
		for j, g := range idx {
			a[g] += got[j]
		}
	case 3:
		for j, g := range idx {
			i := 3 * int(g)
			d, s := a[i:i+3:i+3], got[3*j:3*j+3:3*j+3]
			d[0], d[1], d[2] = d[0]+s[0], d[1]+s[1], d[2]+s[2]
		}
	default:
		panic(fmt.Sprintf("solver: halo point of %d values", nc))
	}
}
