package solver

import (
	"math"
	"sync/atomic"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/mpi"
	"specglobe/internal/perf"
	"specglobe/internal/simd"
)

// solidField is the dynamic state of one wavefield of one solid region
// on one rank, vectors as xyz triples (a point's components adjacent,
// SPECFEM3D_GLOBE's (NDIM, NGLOB) layout). Batched runs hold one
// solidField per ensemble source; the mesh-static members (reg,
// massInv, ocean, gravity tables, attenuation coefficients) are shared
// across the batch by pointer, only the dynamic arrays are per-field.
type solidField struct {
	reg     *mesh.Region
	d, v, a [][3]float32 // displacement, velocity, acceleration
	massInv []float32    // assembled inverse mass
	// ocean marks the ocean-load surface points, whose corrector runs
	// after the load (all false elsewhere).
	ocean []bool
	att   *attState // nil when attenuation is off
	// gravity tables per global point (nil when gravity is off)
	gOverR, dgdr []float32
	rhat         [][3]float32
	// pages are the field's liveness marks (nil: every page counts as
	// live).
	pages *pageMarks
}

// fluidField is the dynamic state of one wavefield of the outer core on
// one rank.
type fluidField struct {
	reg                  *mesh.Region
	chi, chiDot, chiDdot []float32
	massInv              []float32  // shared across fields
	pages                *pageMarks // as solidField.pages
}

// livePage is the number of consecutive points of a region that share
// one liveness mark.
const livePage = 256

// pageMarks are one wavefield's liveness marks over its region, one per
// livePage points. The tails set a page's mark the first time a final
// acceleration there has a non-zero bit, and nothing clears it: fields
// are built per run, so every run starts dead. At the start of a step
// every point of a dead page has d, v and a +0 — so the predictor, the
// tails and the force sweep of a region with no live page may pass it
// by (DESIGN.md "Quiescent pages"). A nil *pageMarks is a field built
// without marks, which counts as all-live.
type pageMarks struct {
	live    []atomic.Bool
	anyLive atomic.Bool
}

func newPageMarks(nglob int) *pageMarks {
	return &pageMarks{live: make([]atomic.Bool, (nglob+livePage-1)/livePage)}
}

// isLive reports whether page pg is live (always, without marks).
func (m *pageMarks) isLive(pg int) bool { return m == nil || m.live[pg].Load() }

// wake marks page pg live.
func (m *pageMarks) wake(pg int) {
	m.live[pg].Store(true)
	m.anyLive.Store(true)
}

// quiet reports whether no page is live (never, without marks).
func (m *pageMarks) quiet() bool { return m != nil && !m.anyLive.Load() }

// eachLive calls fn on the maximal runs of [lo, hi) that lie on live
// pages (on all of it, without marks).
func (m *pageMarks) eachLive(lo, hi int, fn func(lo, hi int)) {
	run := -1
	for pg := lo / livePage; pg*livePage < hi; pg++ {
		switch live := m.isLive(pg); {
		case live && run < 0:
			run = max(lo, pg*livePage)
		case !live && run >= 0:
			fn(run, pg*livePage)
			run = -1
		}
	}
	if run >= 0 {
		fn(run, hi)
	}
}

// zeroBits reports whether every value of a is +0: a −0 or a NaN has a
// set bit.
func zeroBits(a []float32) bool {
	if n := len(a) &^ 7; n > 0 && simd.Vector() {
		if !zeroBitsAVX2(&a[:n:n][0], n) {
			return false
		}
		a = a[n:]
	}
	var or uint32
	for _, v := range a {
		or |= math.Float32bits(v)
	}
	return or == 0
}

// attState holds the standard-linear-solid memory variables of a solid
// region. r is one flat array laid out [elem][mech][comp][point], comp
// indexing the 6 deviatoric strain components (xx, yy, zz, xy, xz, yz):
// an element's slab is one contiguous stream of nsls*6 rows, each the
// 125 values of one component of one mechanism — lane-contiguous, so
// the vector body of stressStage loads and stores 8 points of a row at
// a time. Only stressStage knows the order inside a slab.
type attState struct {
	nsls  int
	alpha []float32 // [elem][mech]
	beta  []float32 // [elem][mech] (includes 1/Qmu)
	muFac []float32 // per element unrelaxed modulus factor
	r     []float32
	// woke marks the elements a visit has driven: until then r is all +0
	// there, and a zero displacement's visit may be skipped.
	woke []bool
}

// clone returns an attState sharing the per-element coefficient tables
// (alpha, beta, muFac are mesh-static) with fresh zeroed memory
// variables and wake marks — one clone per additional batched wavefield.
func (a *attState) clone() *attState {
	return &attState{nsls: a.nsls, alpha: a.alpha, beta: a.beta, muFac: a.muFac,
		r: make([]float32, len(a.r)), woke: make([]bool, len(a.woke))}
}

// sourceLocal is a source with its precomputed nodal force array.
type sourceLocal struct {
	src *Source
	// arr[p][c]: force at element point p, component c, per unit STF.
	arr [mesh.NGLL3][3]float32
}

// recvLocal is a receiver resolved to recording weights.
type recvLocal struct {
	rcv  *Receiver
	kind earthmodel.Region
	elem int
	w    [mesh.NGLL3]float64 // interpolation weights (one-hot if nearest)
	out  []*Seismogram       // one per batched wavefield, indexed by field
	// Streaming state (Options.OnChunk): samples [0, flushed) of every
	// field's series have been emitted; closed marks the Last chunk
	// sent.
	flushed int
	closed  bool
}

// sweepClasses holds the precomputed color classes of the two element
// sub-lists the force stage iterates: the outer and inner halves of the
// overlap split.
type sweepClasses struct {
	outer, inner [][]int32
}

// rankState is all per-rank solver state.
type rankState struct {
	rank  int
	comm  *mpi.Comm
	local *mesh.Local
	plan  *mesh.HaloPlan
	opts  *Options
	dt    float64
	prof  *perf.Profiler
	kern  *kernels // the run's one table set, read-only, shared by every rank
	fc    perf.FlopCounts
	bc    perf.ByteCounts

	// pool is the run's compute, shared by every rank; scr is this
	// rank's scratch for the sweeps it runs inline.
	pool *pool
	scr  *kernelScratch
	// forceBusy/updateBusy accumulate the busy nanoseconds of this
	// rank's kernel and update sweeps, inline or on the workers (atomic;
	// added to the kernel_parallel and update phases when the run ends,
	// not the rank's wait, which would inflate the communication
	// fraction).
	forceBusy, updateBusy int64
	// slot is the compute token the rank holds (-1: none) and heldFrom
	// its sweep busy time when it took it (holdCPU).
	slot     int
	heldFrom int64

	// sweeps and routes are the step's plan, built once at setup: each
	// region's outer and inner colour classes, and each halo set's route
	// over every shared point. The point passes run over every point of
	// a region at dt.
	sweeps [3]sweepClasses
	routes [nHaloSets]haloRoute

	// ns is the ensemble width: the number of independent wavefields
	// batched through the shared mesh (1 for a plain run).
	ns    int
	solid [3][]*solidField // [kind][field]; nil slice for the fluid slot
	fluid []*fluidField    // [field]; nil if the mesh has no outer core

	sources []sourceLocal
	recvs   []recvLocal
	seismos []*Seismogram

	// ocean load factors, parallel to local.Surface.Pts (computed after
	// mass assembly)
	oceanFactor []float32

	// beats is the rank's step (timeStep).
	beats []beat

	// halo holds the exchange state per halo set (see halo.go) and
	// inflight each set's exchange between its post and finish beats.
	halo     [nHaloSets]haloSet
	inflight [nHaloSets]pendingExchange
	seq      int // halo-exchange sequence number for unique tags
}

//specfem:noaccount one-time rank setup (precomputed Jacobians, gravity tables, coupling weights) before stepping starts
func newRankState(c *mpi.Comm, sim *Simulation, opts *Options, dt float64,
	fit *earthmodel.SLSFit, grav *earthmodel.GravityProfile, p *pool, k *kernels, ns int) *rankState {

	if ns < 1 {
		ns = 1
	}
	rank := c.Rank()
	rs := &rankState{
		rank:  rank,
		comm:  c,
		local: sim.Locals[rank],
		plan:  sim.Plans[rank],
		opts:  opts,
		dt:    dt,
		prof:  perf.NewProfiler(rank),
		kern:  k,
		fc:    perf.DefaultFlopCounts(),
		bc:    perf.DefaultByteCounts(),
		pool:  p,
		scr:   new(kernelScratch),
		slot:  -1,
		ns:    ns,
	}
	// The step plan: the hot loop only walks prebuilt lists.
	colors, ov := mesh.BuildColoring(rs.local), mesh.BuildOverlap(rs.local, rs.plan)
	for kind, reg := range rs.local.Regions {
		if reg != nil && reg.NSpec > 0 {
			rs.sweeps[kind] = sweepClasses{
				outer: colors.Classes(kind, ov.Outer[kind]),
				inner: colors.Classes(kind, ov.Inner[kind]),
			}
		}
	}
	for set := range rs.routes {
		rs.routes[set] = rs.buildRoute(set)
	}

	for kind := 0; kind < 3; kind++ {
		reg := rs.local.Regions[kind]
		if reg == nil || reg.NSpec == 0 {
			continue
		}
		if reg.IsFluid() {
			rs.fluid = make([]*fluidField, ns)
			for s := 0; s < ns; s++ {
				fl := &fluidField{
					reg:     reg,
					chi:     make([]float32, reg.NGlob),
					chiDot:  make([]float32, reg.NGlob),
					chiDdot: make([]float32, reg.NGlob),
					pages:   newPageMarks(reg.NGlob),
				}
				rs.fluid[s] = fl
			}
			continue
		}
		f := &solidField{
			reg: reg,
			d:   make([][3]float32, reg.NGlob), v: make([][3]float32, reg.NGlob), a: make([][3]float32, reg.NGlob),
			ocean: make([]bool, reg.NGlob),
			pages: newPageMarks(reg.NGlob),
		}
		if opts.Attenuation && fit != nil {
			f.att = newAttState(reg, fit, dt)
		}
		if opts.Gravity && grav != nil {
			f.gOverR = make([]float32, reg.NGlob)
			f.dgdr = make([]float32, reg.NGlob)
			f.rhat = make([][3]float32, reg.NGlob)
			const h = 100.0 // meters, for dg/dr
			for i, p := range reg.Pts {
				r := math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
				if r < 1 {
					continue // center: g = 0, direction undefined
				}
				g := grav.At(r)
				f.gOverR[i] = float32(g / r)
				f.dgdr[i] = float32((grav.At(r+h) - grav.At(r-h)) / (2 * h))
				f.rhat[i] = [3]float32{float32(p[0] / r), float32(p[1] / r), float32(p[2] / r)}
			}
		}
		fs := make([]*solidField, ns)
		fs[0] = f
		for s := 1; s < ns; s++ {
			// Additional wavefields share all mesh-static members and
			// get fresh dynamic arrays.
			g := *f
			g.d, g.v, g.a = make([][3]float32, reg.NGlob), make([][3]float32, reg.NGlob), make([][3]float32, reg.NGlob)
			g.pages = newPageMarks(reg.NGlob)
			if f.att != nil {
				g.att = f.att.clone()
			}
			fs[s] = &g
		}
		rs.solid[kind] = fs
	}

	rs.buildHaloSets()

	for i := range sim.Sources {
		src := &sim.Sources[i]
		if src.Rank != rank {
			continue
		}
		rs.sources = append(rs.sources, rs.prepareSource(src))
	}
	for i := range sim.Receivers {
		rcv := &sim.Receivers[i]
		if rcv.Rank != rank {
			continue
		}
		rl := rs.prepareReceiver(rcv, opts, dt)
		rs.recvs = append(rs.recvs, rl)
		rs.seismos = append(rs.seismos, rl.out...)
	}
	rs.buildBeats()
	return rs
}

// newAttState builds memory-variable storage and per-element update
// coefficients for a solid region.
//
//specfem:noaccount one-time setup of SLS attenuation coefficients, not stepped work
func newAttState(reg *mesh.Region, fit *earthmodel.SLSFit, dt float64) *attState {
	a := &attState{
		nsls:  fit.NSLS,
		alpha: make([]float32, reg.NSpec*fit.NSLS),
		beta:  make([]float32, reg.NSpec*fit.NSLS),
		muFac: make([]float32, reg.NSpec),
		r:     make([]float32, reg.NSpec*mesh.NGLL3*fit.NSLS*6),
		woke:  make([]bool, reg.NSpec),
	}
	for e := 0; e < reg.NSpec; e++ {
		q := float64(reg.Qmu[e])
		if q <= 0 {
			q = math.Inf(1)
		}
		alpha, beta := fit.MechanismCoefficients(q, dt)
		for k := 0; k < fit.NSLS; k++ {
			a.alpha[e*fit.NSLS+k] = float32(alpha[k])
			a.beta[e*fit.NSLS+k] = float32(beta[k])
		}
		a.muFac[e] = float32(fit.UnrelaxedFactor(q))
	}
	return a
}

// assembleMass performs the one-time cross-rank assembly of the diagonal
// mass matrices and derives inverse masses, ocean load factors and the
// ocean points' mask.
//
//specfem:noaccount one-time mass-matrix assembly before stepping starts
func (rs *rankState) assembleMass() {
	// The masses travel through the step's two halo sets, one value per
	// point; an absent region is an empty part.
	var mass [3][]float32
	for set, kinds := range haloSetKinds {
		arr := make([][][]float32, len(kinds))
		for k, kind := range kinds {
			if reg := rs.local.Regions[kind]; reg != nil && reg.NSpec > 0 {
				mass[kind] = append([]float32(nil), reg.Mass...)
			}
			arr[k] = [][]float32{mass[kind]}
		}
		rs.finish(rs.beginExchange(set, 1, 1, arr))
	}
	for kind, m := range mass {
		if m == nil {
			continue
		}
		inv := make([]float32, len(m))
		for i, v := range m {
			inv[i] = 1 / v
		}
		// All batched wavefields share the one assembled inverse mass.
		if kind == int(earthmodel.RegionOuterCore) {
			for _, fl := range rs.fluid {
				fl.massInv = inv
			}
		} else {
			for _, f := range rs.solid[kind] {
				f.massInv = inv
			}
		}
		if kind == int(earthmodel.RegionCrustMantle) && rs.oceanOn() {
			sl := &rs.local.Surface
			rs.oceanFactor = make([]float32, len(sl.Pts))
			for i, pt := range sl.Pts {
				mw := float32(sl.WaterRho*sl.WaterDepth) * sl.AreaW[i]
				rs.oceanFactor[i] = m[pt] / (m[pt] + mw)
				rs.solid[kind][0].ocean[pt] = true // one mask for the ensemble
			}
		}
	}
}

// oceanOn reports whether the ocean load applies: it is requested and
// the mesh carries a water column over free-surface points.
func (rs *rankState) oceanOn() bool {
	sl := &rs.local.Surface
	return rs.opts.OceanLoad && sl.WaterDepth > 0 && len(sl.Pts) > 0
}

// stateCensus walks the rank's persistent state once and returns the
// largest absolute displacement component (NaN poisons the maximum,
// which the stability check relies on) and the number of values the
// flush should have removed: subnormals in the arrays that survive a
// step — displacement, velocity, the fluid potential and its rate and
// the attenuation memory variables of the elements a visit has woken
// (the rest were never written and are +0) — and non-zero values below
// the flush threshold in the final accelerations. The integrator
// flushes every one of them where it writes them (flush.go), so the
// count is zero unless a write site has been missed. The point arrays are walked on live pages only: on a dead
// page they are +0 by the pages' invariant, and a NaN or any other
// non-zero value has a set bit, so the tail that stored it marked its
// page live.
func (rs *rankState) stateCensus() (maxDisp float64, subnormals int64) {
	// count adds the arrays' subnormals to the total and returns their
	// largest magnitude as float32 bits.
	count := func(arrs ...[]float32) (maxBits uint32) {
		for _, a := range arrs {
			m, n := census(a)
			maxBits = max(maxBits, m)
			subnormals += n
		}
		return maxBits
	}
	var peak uint32
	for _, fs := range rs.solid {
		for _, f := range fs {
			f.pages.eachLive(0, len(f.d), func(lo, hi int) {
				peak = max(peak, count(flat(f.d[lo:hi])))
				count(flat(f.v[lo:hi]))
				subnormals += unflushed(flat(f.a[lo:hi]))
			})
			if f.att != nil {
				slab := f.att.nsls * 6 * mesh.NGLL3
				for e := 0; e < len(f.att.woke); {
					if !f.att.woke[e] {
						e++
						continue
					}
					run := e
					for e < len(f.att.woke) && f.att.woke[e] {
						e++
					}
					count(f.att.r[run*slab : e*slab])
				}
			}
		}
	}
	for _, fl := range rs.fluid {
		fl.pages.eachLive(0, len(fl.chi), func(lo, hi int) {
			count(fl.chi[lo:hi], fl.chiDot[lo:hi])
			subnormals += unflushed(fl.chiDdot[lo:hi])
		})
	}
	return float64(math.Float32frombits(peak)), subnormals
}
