package solver

import (
	"sync/atomic"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/perf"
	"specglobe/internal/simd"
)

// timeStep advances the coupled system by one explicit Newmark step:
//
//  1. predictor: u += dt v + dt^2/2 a;  v += dt/2 a;  a = 0 (the solid
//     displacement and the fluid potential),
//  2. fluid stage: chiDdot = -K chi + coupling from the predicted solid
//     displacement, assembled across ranks, then the fluid tail — mass
//     division, flush, corrector chiDot += dt/2 chiDdot,
//  3. solid stage: a = -K u + sources + fluid traction, assembled, then
//     the solid tail — mass division, Coriolis, gravity, flush, corrector
//     v += dt/2 a — and the ocean load, which runs the free-surface
//     points' corrector after it.
//
// The new u and chi of stage 1 and the final chiDdot and a of stages 2
// and 3 are flushed to zero below 2^-80 as they are stored (flush.go).
// Because the fluid acceleration is final before the solid uses it, the
// fluid-solid coupling needs no iteration (section 1: "non-iterative
// coupling between fluid and solid based on the displacement vector").
//
// The step is data: the rank's beat list (buildBeats), run in order
// and each charged to the profiler with the work it did. Both stages
// follow the paper's overlap schedule: the forces of the *outer*
// elements (those contributing to halo points) and the boundary terms;
// post the halo; the inner elements while the messages are in flight;
// finish; tail. Force sweeps and point passes run through the run's
// pool — inline under a compute token the rank holds for its step, or
// in chunks on worker goroutines, as the pool chose for the step
// (pool.inlineStep) — bit-identical either way; the coupling, source
// and ocean terms touch few points and stay on the rank. Every element and every point
// advances with the one global dt, over the rank's step plan
// (rankState.sweeps and routes). Every pass reads the fields' page
// marks first and passes by the points that have never moved
// (pageMarks).
func (rs *rankState) timeStep(step int) {
	from := rs.sweepBusy()
	if rs.pool.inlineStep(rs.rank) {
		rs.holdCPU()
		defer rs.releaseCPU() // also on a panic, so the other ranks can fail
	}
	rs.prof.Mark()
	for i := range rs.beats {
		b := &rs.beats[i]
		rs.prof.Charge(&b.Beat, rs.run(b, step))
	}
	rs.pool.observe(rs.rank, rs.sweepBusy()-from)
}

// beatKind is what a beat runs.
type beatKind uint8

const (
	beatPredict  beatKind = iota // the predictor of a region's fields
	beatOuter                    // a region's outer-element forces
	beatCouple                   // the fluid side of the CMB/ICB coupling
	beatPost                     // post a halo set's exchange
	beatInner                    // a region's inner-element forces
	beatFinish                   // finish a halo set's exchange
	beatTail                     // the tail of a region's fields
	beatTraction                 // the CMB/ICB traction and the sources
	beatOcean                    // the ocean load and its points' corrector
	beatRecord                   // record and stream the seismograms
)

// beat is one entry of a rank's step: what it runs, on which region (or
// halo set) and, resolved at build, the model's cost of a point visit
// on a live page (flops, bytes) and a dead one (dead), or of a performed
// element visit (flops, bytes), an element (static) and a gather (dead),
// and a solid tail's Coriolis factor 2Ω (omega, 0 without rotation).
type beat struct {
	perf.Beat
	kind                       beatKind
	region                     int
	flops, bytes, static, dead int64
	omega                      float32
}

// buildBeats lays out the rank's step (timeStep). Every rank posts and
// finishes both halo sets, carried or not (a rank without the regions
// has an empty route and only consumes the tag); the other beats exist
// where the rank has something for them to do.
func (rs *rankState) buildBeats() {
	cm, oc, ic := int(earthmodel.RegionCrustMantle), int(earthmodel.RegionOuterCore), int(earthmodel.RegionInnerCore)
	rs.beats = make([]beat, 0, 24)
	add := func(k beatKind, regions ...int) {
		for _, r := range regions {
			if b, ok := rs.newBeat(k, r); ok {
				rs.beats = append(rs.beats, b)
			}
		}
	}
	add(beatPredict, cm, oc, ic)
	add(beatOuter, oc)
	add(beatCouple, oc)
	add(beatPost, haloFluid)
	add(beatInner, oc)
	add(beatFinish, haloFluid)
	add(beatTail, oc)
	add(beatOuter, cm, ic)
	add(beatTraction, cm)
	add(beatPost, haloSolid)
	add(beatInner, cm, ic)
	add(beatFinish, haloSolid)
	add(beatTail, cm, ic)
	add(beatOcean, cm)
	add(beatRecord, cm)
}

// beatNames and beatPhases name each kind of beat and give the phase
// its work counts toward (a fluid force sweep's is force_fluid).
var (
	beatNames = [...]string{beatPredict: "predict", beatOuter: "outer_forces", beatCouple: "coupling",
		beatPost: "post", beatInner: "inner_forces", beatFinish: "finish", beatTail: "tail",
		beatTraction: "traction+sources", beatOcean: "ocean", beatRecord: "record"}
	beatPhases = [...]perf.Phase{beatPredict: perf.PhaseUpdate, beatOuter: perf.PhaseForceSolid,
		beatCouple: perf.PhaseForceFluid, beatPost: perf.PhaseComm, beatInner: perf.PhaseForceSolid,
		beatFinish: perf.PhaseComm, beatTail: perf.PhaseUpdate, beatTraction: perf.PhaseForceSolid,
		beatOcean: perf.PhaseUpdate, beatRecord: perf.PhaseOther}
)

// newBeat returns beat k of region (or halo set) r, and whether the
// rank runs it. The beats that run inline on the rank charge their
// phase their wall time (perf.Beat).
func (rs *rankState) newBeat(k beatKind, r int) (beat, bool) {
	fc, bc := &rs.fc, &rs.bc
	b := beat{Beat: perf.Beat{Name: beatNames[k], Phase: beatPhases[k]}, kind: k, region: r}
	b.Inline = k == beatCouple || k == beatTraction || k == beatOcean
	switch k {
	case beatPost, beatFinish:
		b.Name += "/" + haloSetNames[r]
		return b, true
	case beatCouple:
		return b, rs.fluid != nil
	case beatTraction:
		return b, rs.fluid != nil || len(rs.sources) > 0
	case beatOcean:
		return b, rs.solid[r] != nil && rs.oceanOn()
	case beatRecord:
		return b, len(rs.recvs) > 0
	}
	b.Name += "/" + earthmodel.Region(r).String()
	fluid, fs := r == int(earthmodel.RegionOuterCore), rs.solid[r]
	switch {
	case fluid && rs.fluid == nil || !fluid && fs == nil:
		return b, false
	case fluid && k == beatPredict:
		b.flops, b.bytes = fc.FluidPredictor, bc.FluidPredictor
	case fluid && k == beatTail:
		b.flops, b.bytes, b.dead = fc.FluidMassDiv+fc.FluidCorrector, bc.FluidTail, bc.FluidDeadPoint
	case fluid:
		b.Phase = perf.PhaseForceFluid
		b.flops, b.bytes, b.static, b.dead = fc.FluidElement, bc.FluidElementDynamic, bc.FluidElementStatic, bc.FluidGather
	case k == beatPredict:
		b.flops, b.bytes = fc.SolidPredictor, bc.SolidPredictor
	case k == beatTail:
		b.flops, b.bytes, b.dead = fc.SolidMassDiv+fc.SolidCorrector, bc.SolidTail, bc.SolidDeadPoint
		if rs.opts.Rotation {
			b.omega = float32(2 * rs.opts.RotationRate)
		}
		if b.omega != 0 {
			b.flops += fc.Coriolis
		}
		if fs[0].gOverR != nil {
			b.flops += fc.Gravity
			b.bytes += bc.Gravity
		}
	default:
		b.flops, b.bytes, b.static, b.dead = fc.SolidElement, bc.SolidElementDynamic, bc.SolidElementStatic, bc.SolidGather
		if att := fs[0].att; att != nil {
			// Memory-variable work: per point, per mechanism, 6
			// components of subtract + 2-op recursion update, plus the
			// deviator setup. Memory variables are per field, so both
			// flops and bytes scale with the ensemble.
			b.flops += int64(mesh.NGLL3) * int64(att.nsls*6*3+8)
			b.bytes += bc.AttenuationMech * int64(att.nsls)
		}
	}
	return b, true
}

// run runs one beat of step and returns the work it did.
func (rs *rankState) run(b *beat, step int) perf.Work {
	switch b.kind {
	case beatPredict, beatTail:
		return rs.pointPass(b)
	case beatOuter, beatInner:
		return rs.forceSweep(b)
	case beatCouple:
		n := rs.addSolidDisplacementToFluid()
		return perf.Work{Flops: rs.fc.CouplePoint * n, Bytes: rs.bc.CouplePoint * n}
	case beatPost:
		h := &rs.halo[b.region]
		rs.beginExchange(b.region, rs.ns, h.nc, h.arr)
	case beatFinish:
		rs.finish(&rs.inflight[b.region])
	case beatTraction:
		n, m := rs.addFluidTractionToSolid(), rs.addSources(step)
		return perf.Work{
			Flops: rs.fc.TractionPoint*n + rs.fc.SourcePoint*m,
			Bytes: rs.bc.TractionPoint*n + rs.bc.SourcePoint*m,
		}
	case beatOcean:
		return rs.oceanLoad()
	case beatRecord:
		if (step+1)%rs.opts.RecordEvery == 0 {
			rs.record()
			if rs.opts.OnChunk != nil {
				rs.idle(func() { rs.flushChunks(false) })
			}
		}
	}
	return perf.Work{}
}

// quiet reports whether no field of region kind has a live page.
func (rs *rankState) quiet(kind int) bool {
	for i := 0; i < rs.ns; i++ {
		if kind == int(earthmodel.RegionOuterCore) && !rs.fluid[i].pages.quiet() ||
			kind != int(earthmodel.RegionOuterCore) && !rs.solid[kind][i].pages.quiet() {
			return false
		}
	}
	return true
}

// pointPass runs predictor or tail beat b, one pool pass over its
// region's points. A dead page's visit costs the acceleration stream a
// tail tests there (b.dead); a predictor does nothing there and is not
// dispatched on a quiet region, while a tail is (a source, halo add or
// coupling term can land there).
func (rs *rankState) pointPass(b *beat) perf.Work {
	nglob := rs.local.Regions[b.region].NGlob
	n := int64(nglob * rs.ns)
	dead := n
	if b.kind == beatTail || !rs.quiet(b.region) {
		var d atomic.Int64
		rs.pool.sweepSpans(rs.scr, rs.slot >= 0, nglob, &rs.updateBusy, func(lo, hi int) {
			d.Add(int64(rs.passPoints(b, lo, hi)))
		})
		dead = d.Load()
	}
	live := n - dead
	return perf.Work{Flops: b.flops * live, Bytes: b.bytes*live + b.dead*dead, SkippedPoints: dead}
}

// passPoints runs point pass b at the points [lo, hi) of every field
// and returns the point visits it found on dead pages.
func (rs *rankState) passPoints(b *beat, lo, hi int) (dead int) {
	dt := float32(rs.dt)
	for i := 0; i < rs.ns; i++ {
		switch {
		case b.region == int(earthmodel.RegionOuterCore) && b.kind == beatPredict:
			dead += rs.fluid[i].predict(lo, hi, dt)
		case b.region == int(earthmodel.RegionOuterCore):
			dead += rs.fluid[i].tail(lo, hi, dt)
		case b.kind == beatPredict:
			dead += rs.solid[b.region][i].predict(lo, hi, dt)
		default:
			dead += rs.solid[b.region][i].tail(lo, hi, dt, b.omega)
		}
	}
	return dead
}

// predict is the predictor at the points [first, end), page by page,
// and returns the points it found on dead pages. Those are +0 and stay
// so.
func (f *solidField) predict(first, end int, dt float32) (dead int) {
	dead = end - first
	f.pages.eachLive(first, end, func(lo, hi int) {
		predictFlat(flat(f.d[lo:hi]), flat(f.v[lo:hi]), flat(f.a[lo:hi]), dt)
		dead -= hi - lo
	})
	return dead
}

// predict is solidField.predict for the fluid potential.
func (fl *fluidField) predict(first, end int, dt float32) (dead int) {
	dead = end - first
	fl.pages.eachLive(first, end, func(lo, hi int) {
		predictFlat(fl.chi[lo:hi], fl.chiDot[lo:hi], fl.chiDdot[lo:hi], dt)
		dead -= hi - lo
	})
	return dead
}

// predictFlat is the predictor on the values of a field's state viewed
// flat (an xyz triple is three values, each advanced alone): d += dt v
// + dt²/2 a, v += dt/2 a, a = 0.
func predictFlat(d, v, a []float32, dt float32) {
	half, halfSq := dt/2, dt*dt/2
	v, a = v[:len(d)], a[:len(d)]
	if n := len(d) &^ 7; n > 0 && simd.Vector() {
		predictAVX2(&d[:n:n][0], &v[:n:n][0], &a[:n:n][0], n, dt, half, halfSq)
		d, v, a = d[n:], v[n:], a[n:]
	}
	for k := range d {
		x := a[k]
		d[k] = ftz(d[k] + (dt*v[k] + halfSq*x))
		v[k] += half * x
		a[k] = 0
	}
}

// tail is the fluid's step tail at the points [first, end), page by
// page, and returns the points it found on dead pages (see
// solidField.tail).
func (fl *fluidField) tail(first, end int, dt float32) (dead int) {
	for pg := first / livePage; pg*livePage < end; pg++ {
		lo, hi := max(first, pg*livePage), min(end, (pg+1)*livePage)
		if !fl.pages.isLive(pg) {
			if zeroBits(fl.chiDdot[lo:hi]) {
				dead += hi - lo
				continue
			}
			fl.pages.wake(pg)
		}
		fl.tailPoints(lo, hi, dt)
	}
	return dead
}

// tailPoints is the fluid's step tail at the points [lo, hi): mass
// division and flush of the final potential acceleration and the
// corrector chiDot += dt/2 chiDdot.
func (fl *fluidField) tailPoints(lo, hi int, dt float32) {
	half := dt / 2
	dd := fl.chiDdot[lo:hi]
	dot, m := fl.chiDot[lo:hi], fl.massInv[lo:hi]
	dot, m = dot[:len(dd)], m[:len(dd)]
	// The vector part's length comes from the chunk's range, not from
	// len(dd): poolsafety accepts a pointer handed to assembly only
	// through bounds it can trace to the chunk's arguments.
	if n := (hi - lo) &^ 7; n > 0 && simd.Vector() {
		fluidTailAVX2(&dd[:n:n][0], &dot[:n:n][0], &m[:n:n][0], n, half)
		dd, dot, m = dd[n:], dot[n:], m[n:]
	}
	for k := range dd {
		x := ftz(dd[k] * m[k])
		dd[k] = x
		dot[k] += half * x
	}
}

// tail is the step's tail at the points [first, end), page by page, and
// returns the points it found on dead pages. A dead page's piece is
// tested first: when every bit of its final acceleration is zero the
// tail would leave every value as it is — +0 — and the piece is passed
// by; otherwise the page is marked live and the piece runs in full.
// Every contribution to the acceleration has landed by now, so the mark
// is exact.
func (f *solidField) tail(first, end int, dt, twoOmega float32) (dead int) {
	for pg := first / livePage; pg*livePage < end; pg++ {
		lo, hi := max(first, pg*livePage), min(end, (pg+1)*livePage)
		if !f.pages.isLive(pg) {
			if zeroBits(flat(f.a[lo:hi])) {
				dead += hi - lo
				continue
			}
			f.pages.wake(pg)
		}
		f.tailPoints(lo, hi, dt, twoOmega)
	}
	return dead
}

// tailPoints is the step's tail at the points [lo, hi), in the order
// the step defines for each point: mass division, Coriolis (from the
// predicted velocity), gravity, the flush and store of the final
// acceleration, and the corrector v += dt/2 a — which the ocean points
// leave to oceanLoad, after their load.
func (f *solidField) tailPoints(lo, hi int, dt, twoOmega float32) {
	half := dt / 2
	a := f.a[lo:hi]
	v, m, ocean := f.v[lo:hi], f.massInv[lo:hi], f.ocean[lo:hi]
	v, m, ocean = v[:len(a)], m[:len(a)], ocean[:len(a)]
	var d, rhat [][3]float32
	var gOverR, dgdr []float32
	if f.gOverR != nil {
		d, rhat = f.d[lo:hi], f.rhat[lo:hi]
		gOverR, dgdr = f.gOverR[lo:hi], f.dgdr[lo:hi]
	}
	if n := (hi - lo) &^ 7; n > 0 && simd.Vector() { // as in fluidField.tailPoints
		if gOverR == nil {
			solidTailAVX2(&solidTailArgs{a: &a[:n:n][0][0], v: &v[:n:n][0][0], m: &m[:n:n][0], ocean: &ocean[:n:n][0],
				n: n, half: half, twoOmega: twoOmega})
		} else {
			solidTailAVX2(&solidTailArgs{a: &a[:n:n][0][0], v: &v[:n:n][0][0], m: &m[:n:n][0], ocean: &ocean[:n:n][0],
				d: &d[:n:n][0][0], rhat: &rhat[:n:n][0][0], gOverR: &gOverR[:n:n][0], dgdr: &dgdr[:n:n][0],
				n: n, half: half, twoOmega: twoOmega})
			d, rhat, gOverR, dgdr = d[n:], rhat[n:], gOverR[n:], dgdr[n:]
		}
		a, v, m, ocean = a[n:], v[n:], m[n:], ocean[n:]
	}
	for k := range a {
		p, w, mk := &a[k], &v[k], m[k]
		ax, ay, az := p[0]*mk, p[1]*mk, p[2]*mk
		// Coriolis: a -= 2 Omega x v with Omega = (0, 0, omega). The
		// lumped-mass form is exact pointwise because both the force and
		// the mass carry the same rho*JacW weights.
		if twoOmega != 0 {
			ax += twoOmega * w[1]
			ay -= twoOmega * w[0]
		}
		// Background gravity (Cowling-style local term): the linearized
		// restoring tensor H = (g/r)(I - rhat rhat) + (dg/dr) rhat rhat
		// applied to the displacement.
		if gOverR != nil {
			u, r := &d[k], &rhat[k]
			ur := u[0]*r[0] + u[1]*r[1] + u[2]*r[2]
			gr, dg := gOverR[k], dgdr[k]
			ax -= gr*(u[0]-ur*r[0]) + dg*ur*r[0]
			ay -= gr*(u[1]-ur*r[1]) + dg*ur*r[1]
			az -= gr*(u[2]-ur*r[2]) + dg*ur*r[2]
		}
		// The acceleration is final here (bar the ocean points): flush
		// it, so the corrector and the next predictor never build a
		// velocity from a tiny value.
		ax, ay, az = ftz(ax), ftz(ay), ftz(az)
		p[0], p[1], p[2] = ax, ay, az
		if ocean[k] {
			continue
		}
		w[0] += half * ax
		w[1] += half * ay
		w[2] += half * az
	}
}

// oceanLoad rescales the normal component of the free-surface
// acceleration by M/(M+Mw) at every ocean-load surface point, then runs
// the corrector the tail left to it there. Few points; inline.
func (rs *rankState) oceanLoad() perf.Work {
	sl := &rs.local.Surface
	half := float32(rs.dt) / 2
	for _, f := range rs.solid[earthmodel.RegionCrustMantle] {
		for j, pt := range sl.Pts {
			a, v := &f.a[pt], &f.v[pt]
			an := a[0]*sl.Nx[j] + a[1]*sl.Ny[j] + a[2]*sl.Nz[j]
			scale := an * (1 - rs.oceanFactor[j])
			a[0], a[1], a[2] = ftz(a[0]-scale*sl.Nx[j]), ftz(a[1]-scale*sl.Ny[j]), ftz(a[2]-scale*sl.Nz[j])
			v[0], v[1], v[2] = v[0]+half*a[0], v[1]+half*a[1], v[2]+half*a[2]
		}
	}
	n := int64(len(sl.Pts) * rs.ns)
	return perf.Work{Flops: rs.fc.OceanPoint * n, Bytes: rs.bc.OceanPoint * n}
}
