package solver

import (
	"fmt"
	"sort"
	"unsafe"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mpi"
)

// The halo exchange. Every cross-rank assembly — the fluid potential,
// the solid accelerations and the one-time mass matrices — is one call
// of beginExchange over a route precomputed at setup. The step loop
// builds no maps and sorts nothing.
//
// Wire layout of one message, outermost to innermost: wavefield, region
// part, shared point, component — each point's components as adjacent in
// the message as in the state arrays. The solid set carries the two
// solid regions back to back, the combined exchange of the paper
// ("handling crust mantle and inner core simultaneously").

// Halo sets: the region combinations that travel in one message. The
// step and the mass assembly post and finish exactly these two.
const (
	haloFluid = iota // the outer core
	haloSolid        // crust/mantle + inner core in one message per neighbor
	nHaloSets
)

var haloSetKinds = [nHaloSets][]int{
	haloFluid: {int(earthmodel.RegionOuterCore)},
	haloSolid: {int(earthmodel.RegionCrustMantle), int(earthmodel.RegionInnerCore)},
}

var haloSetNames = [nHaloSets]string{haloFluid: "outer_core", haloSolid: "solid"}

// routePeer is one neighbor of a route: parts[k] lists the local point
// indices region k of the set contributes, in the key-sorted order both
// ends share (HaloEdge.Idx itself; empty when the region has no edge to
// this peer); n is their total.
type routePeer struct {
	peer  int
	parts [][]int32
	n     int
}

// haloRoute is the resolved exchange of one halo set (rankState.routes):
// the peers in ascending rank order, peers with nothing to exchange
// dropped (both ends agree, so neither sends).
type haloRoute []routePeer

// haloSet is one region combination's exchange state: the arrays the
// step loop assembles.
type haloSet struct {
	nc  int           // components per point
	arr [][][]float32 // arr[part][field], nc values per point; nil part = region absent
}

// buildRoute resolves one halo set's route over every shared point of
// the rank's halo plan.
func (rs *rankState) buildRoute(set int) haloRoute {
	kinds := haloSetKinds[set]
	var peers []routePeer
	for k, kind := range kinds {
		for _, e := range rs.plan.Edges[kind] {
			peer := e.Peer
			at := 0
			for at < len(peers) && peers[at].peer != peer {
				at++
			}
			if at == len(peers) {
				peers = append(peers, routePeer{peer: peer, parts: make([][]int32, len(kinds))})
			}
			peers[at].parts[k] = e.Idx
			peers[at].n += len(e.Idx)
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

// buildHaloSets points the two halo sets at the arrays the step loop
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
		if set == haloFluid {
			h.nc = 1
		}
		for _, kind := range haloSetKinds[set] {
			h.arr = append(h.arr, accel[kind])
		}
	}
}

// pendingExchange is an in-flight halo assembly. The local contributions
// for every shared point are already packed and sent; finish waits for
// the peers' payloads in route order and accumulates them.
type pendingExchange struct {
	rt     haloRoute
	nf, nc int
	arr    [][][]float32
	reqs   []*mpi.Request // the posted receives, parallel to rt
	// bufs holds, parallel to rt, the payload last received from each
	// peer: the rank owns it once added (Isend hands payloads over) and
	// packs its next message to that peer into it. A route is
	// symmetric — both ends exchange nf*nc*pr.n values — so after the
	// first exchange of a set the same two arrays travel back and forth.
	bufs [][]float32
}

// beginExchange packs and sends this rank's contributions to halo set
// set for nf wavefields of nc components per point (arr[part][field]) —
// one aggregated message per neighbor (nf× payload, 1× latency) — and
// posts the receives, into the set's rs.inflight slot. Each message is
// packed into the payload last received from its peer (pendingExchange.bufs),
// so a steady-state exchange allocates nothing. Halo-point entries must
// be final before the call; only non-halo points may be written between
// begin and finish. Its tag is the next sequence number, consumed
// unconditionally: every rank makes the same exchanges in the same
// order, so tags agree across ranks even when this rank has no peer (or
// no region) for the set. The receives are posted non-blocking *now*,
// so the virtual transfer time between here and finish is credited as
// hidden.
func (rs *rankState) beginExchange(set, nf, nc int, arr [][][]float32) *pendingExchange {
	rs.seq++
	tag, rt := rs.seq, rs.routes[set]
	p := &rs.inflight[set]
	*p = pendingExchange{rt: rt, nf: nf, nc: nc, arr: arr, reqs: p.reqs[:0], bufs: p.bufs}
	if p.bufs == nil {
		p.bufs = make([][]float32, len(rt))
	}
	for i, pr := range rt {
		n := nf * nc * pr.n
		buf := p.bufs[i]
		if cap(buf) < n {
			buf = make([]float32, n) // the first exchange, or the mass's narrower one before
		}
		buf = buf[:n]
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
		rs.comm.Isend(pr.peer, tag, buf)
		p.bufs[i] = nil // buf is the peer's now
		p.reqs = append(p.reqs, rs.comm.Irecv(pr.peer, tag))
	}
	return p
}

// finish completes exchange p: every peer's payload is added into the
// local arrays and kept for the next message to that peer. A payload
// that has not arrived is waited for without the rank's compute token
// (idle). Safe on a route without peers.
func (rs *rankState) finish(p *pendingExchange) {
	for i, pr := range p.rt {
		req := p.reqs[i]
		got, ok := req.Test()
		if !ok {
			rs.idle(func() { got = req.Wait() })
		}
		req.Release()
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
		p.bufs[i] = got
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
