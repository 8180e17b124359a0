package solver

import (
	"specglobe/internal/earthmodel"
	"specglobe/internal/perf"
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
// The force kernels sweep their colour classes on the shared worker pool
// (colours serialize, chunks within a colour are conflict-free) and the
// point passes dispatch as point spans, so every sweep is bit-identical
// at any worker count; coupling, source and ocean terms touch few points
// and stay inline. Every step is one spoke of the wheel (lts.go): its
// level plan lists the colour classes, point spans and halo routes it
// runs, each firing point advancing with its own rate-scaled dt. Under
// LTS dormant points are skipped by every point pass and masked out of
// the halo payloads; their acceleration slots accumulate garbage from
// firing neighbors, which the predictor wipes at their next firing.
func (rs *rankState) timeStep(step int) {
	rs.lp = &rs.levels[ltsLevelOf(step, len(rs.levels))]
	rs.predictor()
	rs.fluidStage()
	rs.solidStage(step)
	if (step+1)%rs.opts.RecordEvery == 0 {
		rs.record(step)
		if rs.opts.OnChunk != nil {
			rs.flushChunks(false)
		}
	}
}

// predictor runs the Newmark prediction for every field, one pool pass
// per region over the plan's spans. A field with held accelerations
// reads them — a dormant point's live slot has been polluted by firing
// neighbors. The ensemble loop runs inside the dispatched chunk, so one
// pool pass covers all wavefields.
func (rs *rankState) predictor() {
	for kind, fs := range rs.solid {
		if fs == nil {
			continue
		}
		n := rs.lp.fired[kind]
		rs.pool.sweepSpans(rs.scr, rs.lp.spans[kind], n, &rs.updateBusy, func(spans []span) {
			for _, f := range fs {
				for _, s := range spans {
					f.predict(s)
				}
			}
		})
		rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.SolidPredictor*int64(n*len(fs)))
		rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.SolidPredictor*int64(n*len(fs)))
	}
	if fls := rs.fluid; fls != nil {
		oc := earthmodel.RegionOuterCore
		n := rs.lp.fired[oc]
		rs.pool.sweepSpans(rs.scr, rs.lp.spans[oc], n, &rs.updateBusy, func(spans []span) {
			for _, fl := range fls {
				for _, s := range spans {
					fl.predict(s)
				}
			}
		})
		rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.FluidPredictor*int64(n*len(fls)))
		rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.FluidPredictor*int64(n*len(fls)))
	}
}

// predict is the predictor at the points of one span: d += dt v +
// dt²/2 a, v += dt/2 a, a = 0, reading a from held when the field keeps
// it.
func (f *solidField) predict(s span) {
	dt := s.dt
	half, halfSq := dt/2, dt*dt/2
	d, v, a := f.d[s.i:s.i+s.n], f.v[s.i:s.i+s.n], f.a[s.i:s.i+s.n]
	acc := a
	if f.held != nil {
		acc = f.held[s.i : s.i+s.n]
	}
	v, a, acc = v[:len(d)], a[:len(d)], acc[:len(d)]
	for k := range d {
		x, u, w := &acc[k], &d[k], &v[k]
		ax, ay, az := x[0], x[1], x[2]
		u[0] = ftz(u[0] + (dt*w[0] + halfSq*ax))
		u[1] = ftz(u[1] + (dt*w[1] + halfSq*ay))
		u[2] = ftz(u[2] + (dt*w[2] + halfSq*az))
		w[0] += half * ax
		w[1] += half * ay
		w[2] += half * az
		a[k] = [3]float32{}
	}
}

// predict is solidField.predict for the fluid potential.
func (fl *fluidField) predict(s span) {
	dt := s.dt
	half, halfSq := dt/2, dt*dt/2
	chi, dot, dd := fl.chi[s.i:s.i+s.n], fl.chiDot[s.i:s.i+s.n], fl.chiDdot[s.i:s.i+s.n]
	acc := dd
	if fl.held != nil {
		acc = fl.held[s.i : s.i+s.n]
	}
	dot, dd, acc = dot[:len(chi)], dd[:len(chi)], acc[:len(chi)]
	for k := range chi {
		x := acc[k]
		chi[k] = ftz(chi[k] + (dt*dot[k] + halfSq*x))
		dot[k] += half * x
		dd[k] = 0
	}
}

// fluidStage runs the fluid half of the step (the element visit's
// pointwise stage is the function fluidStage, fluid.go). Both stages
// have one shape, the paper's overlap schedule followed by the field's
// tail: the
// forces of the *outer* elements (those contributing to halo points)
// and the boundary terms, which touch boundary points; post the halo;
// the inner elements while the messages are in flight; finish; tail.
// The fluid tail leaves the potential acceleration final before the
// solid stage's traction reads it. A rank without fluid runs the same
// stage over nothing: its route is empty and only consumes the tag.
func (rs *rankState) fluidStage() {
	oc := int(earthmodel.RegionOuterCore)
	sw := &rs.lp.sweeps[oc]
	rs.computeFluidForces(sw.outer)
	rs.prof.Time(perf.PhaseForceFluid, func() {
		rs.addSolidDisplacementToFluid(rs.local.CMB)
		rs.addSolidDisplacementToFluid(rs.local.ICB)
	})
	halo := rs.beginStepExchange(oc)
	rs.computeFluidForces(sw.inner)
	halo.finish()
	rs.fluidTail()
}

// solidStage runs the solid half of the step and finishes it. The halo
// is posted once every halo point's local contribution — outer forces,
// traction, sources — is fixed; every rank posts every set, carried or
// not (a rank without the region has an empty route and only consumes
// the tag).
func (rs *rankState) solidStage(step int) {
	for kind, fs := range rs.solid {
		if fs != nil {
			rs.computeSolidForces(fs, rs.lp.sweeps[kind].outer)
		}
	}
	rs.prof.Time(perf.PhaseForceSolid, func() {
		rs.addFluidTractionToSolid(rs.local.CMB)
		rs.addFluidTractionToSolid(rs.local.ICB)
		rs.addSources(step)
	})
	for i, set := range rs.solidSets {
		rs.solidHalo[i] = rs.beginStepExchange(set)
	}
	for kind, fs := range rs.solid {
		if fs != nil {
			rs.computeSolidForces(fs, rs.lp.sweeps[kind].inner)
		}
	}
	for _, p := range rs.solidHalo {
		p.finish()
	}
	rs.solidTail()
}

// fluidTail finishes the step for every fluid field, one pool pass over
// the plan's fluid spans.
func (rs *rankState) fluidTail() {
	fls := rs.fluid
	oc := earthmodel.RegionOuterCore
	n := rs.lp.fired[oc]
	rs.pool.sweepSpans(rs.scr, rs.lp.spans[oc], n, &rs.updateBusy, func(spans []span) {
		for _, fl := range fls {
			for _, s := range spans {
				fl.tail(s)
			}
		}
	})
	rs.prof.AddFlops(perf.PhaseUpdate, (rs.fc.FluidMassDiv+rs.fc.FluidCorrector)*int64(n*len(fls)))
	rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.FluidTail*int64(n*len(fls)))
}

// tail is the fluid's step tail at the points of one span: mass
// division and flush of the final potential acceleration, the corrector
// chiDot += dt/2 chiDdot, and the copy into held.
func (fl *fluidField) tail(s span) {
	half := s.dt / 2
	dd := fl.chiDdot[s.i : s.i+s.n]
	dot, m := fl.chiDot[s.i:s.i+s.n], fl.massInv[s.i:s.i+s.n]
	dot, m = dot[:len(dd)], m[:len(dd)]
	for k := range dd {
		x := ftz(dd[k] * m[k])
		dd[k] = x
		dot[k] += half * x
	}
	if fl.held != nil {
		copy(fl.held[s.i:s.i+s.n], dd)
	}
}

// solidTail finishes the step for every solid field, one pool pass per
// region over the plan's spans, then applies the ocean load. Under LTS
// the points the spans skip are dormant: their accelerations keep
// garbage until their own predictor wipes it.
func (rs *rankState) solidTail() {
	twoOmega := float32(0)
	if rs.opts.Rotation {
		twoOmega = float32(2 * rs.opts.RotationRate)
	}
	for kind, fs := range rs.solid {
		if fs == nil {
			continue
		}
		n := rs.lp.fired[kind]
		rs.pool.sweepSpans(rs.scr, rs.lp.spans[kind], n, &rs.updateBusy, func(spans []span) {
			for _, f := range fs {
				for _, s := range spans {
					f.tail(s, twoOmega)
				}
			}
		})
		flops := rs.fc.SolidMassDiv + rs.fc.SolidCorrector
		bytes := rs.bc.SolidTail
		if twoOmega != 0 {
			flops += rs.fc.Coriolis
		}
		if fs[0].gOverR != nil {
			flops += rs.fc.Gravity
			bytes += rs.bc.Gravity
		}
		rs.prof.AddFlops(perf.PhaseUpdate, flops*int64(n*len(fs)))
		rs.prof.AddBytes(perf.PhaseUpdate, bytes*int64(n*len(fs)))
	}
	rs.oceanLoad()
}

// tail is the step's tail at the points of one span, in the order the
// step defines for each point: mass division, Coriolis (from the
// predicted velocity), gravity, the flush and store of the final
// acceleration, and the corrector v += dt/2 a — which the ocean points
// leave to oceanLoad, after their load. A field that keeps held
// accelerations then copies the final ones into it for the next
// predictor.
func (f *solidField) tail(s span, twoOmega float32) {
	half := s.dt / 2
	lo, hi := s.i, s.i+s.n
	a := f.a[lo:hi]
	v, m, ocean := f.v[lo:hi], f.massInv[lo:hi], f.ocean[lo:hi]
	v, m, ocean = v[:len(a)], m[:len(a)], ocean[:len(a)]
	var d, rhat [][3]float32
	var gOverR, dgdr []float32
	if f.gOverR != nil {
		d, rhat = f.d[lo:hi], f.rhat[lo:hi]
		gOverR, dgdr = f.gOverR[lo:hi], f.dgdr[lo:hi]
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
	if f.held != nil {
		copy(f.held[lo:hi], a)
	}
}

// oceanLoad rescales the normal component of the free-surface
// acceleration by M/(M+Mw) at the surface points the step fires, then
// runs the corrector and the held copy the tail left to it there. Few
// points; inline.
func (rs *rankState) oceanLoad() {
	if rs.oceanFactor == nil {
		return
	}
	rs.prof.Time(perf.PhaseUpdate, func() {
		sl := &rs.local.Surface
		for _, f := range rs.solid[earthmodel.RegionCrustMantle] {
			for _, op := range rs.lp.ocean {
				j, pt, half := op.j, sl.Pts[op.j], op.dt/2
				a, v := &f.a[pt], &f.v[pt]
				an := a[0]*sl.Nx[j] + a[1]*sl.Ny[j] + a[2]*sl.Nz[j]
				scale := an * (1 - rs.oceanFactor[j])
				a[0], a[1], a[2] = ftz(a[0]-scale*sl.Nx[j]), ftz(a[1]-scale*sl.Ny[j]), ftz(a[2]-scale*sl.Nz[j])
				v[0], v[1], v[2] = v[0]+half*a[0], v[1]+half*a[1], v[2]+half*a[2]
				if f.held != nil {
					f.held[pt] = *a
				}
			}
		}
		n := len(rs.lp.ocean)
		rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.OceanPoint*int64(n*rs.ns))
		rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.OceanPoint*int64(n*rs.ns))
	})
}
