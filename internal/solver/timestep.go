package solver

import (
	"specglobe/internal/earthmodel"
	"specglobe/internal/perf"
)

// timeStep advances the coupled system by one explicit Newmark step:
//
//  1. predictor: u += dt v + dt^2/2 a;  v += dt/2 a;  a = 0 (both the
//     solid displacement and the fluid potential),
//  2. fluid: chiDdot = Mf^-1 (-K chi + coupling from the predicted
//     solid displacement), assembled across ranks,
//  3. solid: a = M^-1 (-K u + sources + fluid traction), assembled,
//     then the pointwise Coriolis / gravity / ocean-load corrections,
//  4. corrector: v += dt/2 a (the fluid's already ran in stage 3,
//     under the in-flight solid halo).
//
// The new u and chi of stage 1 and the final a and chiDdot of stages 2
// and 3 are flushed to zero below 2^-80 as they are stored (flush.go),
// which keeps float32 subnormals out of every later stage.
//
// Because the fluid acceleration is final before the solid uses it, the
// fluid-solid coupling needs no iteration (section 1: "non-iterative
// coupling between fluid and solid based on the displacement vector").
//
// The force kernels sweep their color classes on the shared worker
// pool (colors serialize, chunks within a color are conflict-free),
// and the pointwise predictor/mass-division/corrector loops dispatch
// as index ranges — every point is written independently, so both are
// bit-identical at any worker count. Coupling, source and ocean-load
// terms touch few points and stay inline on the rank goroutine.
// Every step is one spoke of the wheel (lts.go): the step's level plan
// (the largest power of two dividing the step number, capped at the top
// level) lists the colour classes, Newmark passes, division lists and
// halo routes the step runs, each firing point advancing with its own
// rate-scaled dt. Without local time stepping the wheel has one level
// that fires everything. Under LTS dormant points are skipped by every
// pointwise loop and masked out of the halo payloads; their acceleration
// slots accumulate garbage from firing neighbors, which the predictor
// wipes at their next firing.
func (rs *rankState) timeStep(step int) {
	rs.lp = &rs.levels[ltsLevelOf(step, len(rs.levels))]
	rs.predictor()
	rs.forceStage(step)
	rs.solidUpdate()
	rs.corrector()
	if (step+1)%rs.opts.RecordEvery == 0 {
		rs.record(step)
		if rs.opts.OnChunk != nil {
			rs.flushChunks(false)
		}
	}
}

// predictor runs the Newmark prediction for every field, one pool pass
// per pass of the plan. A pass with a hold level reads the acceleration
// held at its previous firing — the live slot has been polluted by
// firing neighbors during the dormant window. The ensemble loop runs
// inside the dispatched chunk, so one pool pass covers all wavefields.
func (rs *rankState) predictor() {
	for kind, fs := range rs.solid {
		if fs == nil {
			continue
		}
		n := 0
		for _, ps := range rs.lp.passes[kind] {
			list, li, dt := ps.list, ps.hold, ps.dt
			half, halfSq := dt/2, dt*dt/2
			rs.pool.sweepRange(rs.scr, ps.n, &rs.updateBusy, func(lo, hi int) {
				for _, f := range fs {
					var hx, hy, hz []float32
					if li > 0 {
						hx, hy, hz = f.hx[li], f.hy[li], f.hz[li]
					}
					for q := lo; q < hi; q++ {
						i := q
						if list != nil {
							i = int(list[q])
						}
						ax, ay, az := f.ax[i], f.ay[i], f.az[i]
						if hx != nil {
							ax, ay, az = hx[q], hy[q], hz[q]
						}
						f.dx[i] = ftz(f.dx[i] + (dt*f.vx[i] + halfSq*ax))
						f.dy[i] = ftz(f.dy[i] + (dt*f.vy[i] + halfSq*ay))
						f.dz[i] = ftz(f.dz[i] + (dt*f.vz[i] + halfSq*az))
						f.vx[i] += half * ax
						f.vy[i] += half * ay
						f.vz[i] += half * az
						f.ax[i], f.ay[i], f.az[i] = 0, 0, 0
					}
				}
			})
			n += ps.n
		}
		rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.SolidPredictor*int64(n*len(fs)))
		rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.SolidPredictor*int64(n*len(fs)))
	}
	if fls := rs.fluid; fls != nil {
		n := 0
		for _, ps := range rs.lp.passes[earthmodel.RegionOuterCore] {
			list, li, dt := ps.list, ps.hold, ps.dt
			half, halfSq := dt/2, dt*dt/2
			rs.pool.sweepRange(rs.scr, ps.n, &rs.updateBusy, func(lo, hi int) {
				for _, fl := range fls {
					var h []float32
					if li > 0 {
						h = fl.hChi[li]
					}
					for q := lo; q < hi; q++ {
						i := q
						if list != nil {
							i = int(list[q])
						}
						a := fl.chiDdot[i]
						if h != nil {
							a = h[q]
						}
						fl.chi[i] = ftz(fl.chi[i] + (dt*fl.chiDot[i] + halfSq*a))
						fl.chiDot[i] += half * a
						fl.chiDdot[i] = 0
					}
				}
			})
			n += ps.n
		}
		rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.FluidPredictor*int64(n*len(fls)))
		rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.FluidPredictor*int64(n*len(fls)))
	}
}

// forceStage runs the fluid stage (forces, assembly, face-point mass
// division), then the solid stage. Each stage has the same shape — the
// paper's overlap schedule: the *outer* elements (those contributing to
// halo points) and the boundary terms first, post the halo, the inner
// elements (plus, in the solid stage, the rest of the fluid update)
// while the messages are in flight, then accumulate the received
// contributions. The coupling and source terms touch boundary points
// and therefore run before the post.
func (rs *rankState) forceStage(step int) {
	// --- Fluid stage ------------------------------------------------------
	if rs.fluid != nil {
		oc := int(earthmodel.RegionOuterCore)
		sw := &rs.lp.sweeps[oc]
		rs.computeFluidForces(sw.outer)
		rs.addFluidCoupling()
		fluidHalo := rs.beginStepExchange(oc)
		rs.computeFluidForces(sw.inner)
		fluidHalo.finish()
		// Only the coupling-face points must be final before the
		// traction; the rest divides under the solid halo.
		rs.fluidMassDivisionFace()
	} else {
		rs.nextTag() // keep the exchange sequence aligned
	}

	// --- Solid stage ------------------------------------------------------
	for kind, fs := range rs.solid {
		if fs != nil {
			rs.computeSolidForces(fs, rs.lp.sweeps[kind].outer)
		}
	}
	rs.addTractionAndSources(step)
	rs.finishSolidStage()
}

// addFluidCoupling applies the fluid-side CMB/ICB coupling term from
// the predicted solid displacement.
func (rs *rankState) addFluidCoupling() {
	rs.prof.Time(perf.PhaseForceFluid, func() {
		rs.addSolidDisplacementToFluid(rs.local.CMB)
		rs.addSolidDisplacementToFluid(rs.local.ICB)
	})
}

// fluidMassDivisionFace divides only the CMB/ICB coupling-face points —
// the values the solid traction consumes — so the remaining division
// can slide under the solid halo (fluidMassDivisionRest). All element,
// coupling and halo contributions must be in. Under LTS only the firing
// points are divided (the rest hold garbage that the next predictor
// wipes), and the shadow points' fresh values are copied into each
// field's traction shadow.
func (rs *rankState) fluidMassDivisionFace() {
	rs.divideFluidList(rs.lp.face)
	for _, fl := range rs.fluid {
		for _, p := range rs.lp.shadow {
			fl.accHold[p] = fl.chiDdot[p]
		}
	}
}

// fluidMassDivisionRest divides the non-face fluid points; it runs
// inside finishSolidStage, under the in-flight solid halo.
func (rs *rankState) fluidMassDivisionRest() {
	rs.divideFluidList(rs.lp.rest)
}

// divideFluidList applies the inverse mass to a point list (all
// batched wavefields).
func (rs *rankState) divideFluidList(list []int32) {
	fls := rs.fluid
	if len(list) == 0 {
		return
	}
	rs.pool.sweepRange(rs.scr, len(list), &rs.updateBusy, func(lo, hi int) {
		for _, fl := range fls {
			for q := lo; q < hi; q++ {
				i := list[q]
				fl.chiDdot[i] = ftz(fl.chiDdot[i] * fl.massInv[i])
			}
		}
	})
	rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.FluidMassDiv*int64(len(list)*len(fls)))
	rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.FluidMassDiv*int64(len(list)*len(fls)))
}

// addTractionAndSources applies the boundary terms of the solid stage:
// the fluid pressure traction at the CMB/ICB (the face points of the
// fluid potential are final here) and the source injection.
func (rs *rankState) addTractionAndSources(step int) {
	rs.prof.Time(perf.PhaseForceSolid, func() {
		rs.addFluidTractionToSolid(rs.local.CMB)
		rs.addFluidTractionToSolid(rs.local.ICB)
		rs.addSources(step)
	})
}

// finishSolidStage posts the solid halo exchange (every halo point's
// local contribution — outer forces, traction, sources — is fixed by
// now), runs the solid inner sweeps while it is in flight, and waits.
// The rest of the fluid update — non-face mass division and the fluid
// corrector — also rides under the in-flight solid halo here: the halo
// only touches solid acceleration arrays, so the fluid update is free
// hiding material.
func (rs *rankState) finishSolidStage() {
	// Every rank posts every set, carried or not: a rank without the
	// region has an empty route and only consumes the tag.
	for i, set := range rs.solidSets {
		rs.solidHalo[i] = rs.beginStepExchange(set)
	}
	// Inner elements touch no halo point: they compute while the
	// boundary messages are in flight.
	for kind, fs := range rs.solid {
		if fs != nil {
			rs.computeSolidForces(fs, rs.lp.sweeps[kind].inner)
		}
	}
	rs.fluidMassDivisionRest() // both no-ops on a rank without fluid
	rs.fluidCorrector()
	for _, p := range rs.solidHalo {
		p.finish()
	}
}

// solidUpdate is the mass division, the pointwise Coriolis and gravity
// corrections and the flush in one pass over each field's
// acceleration, followed by the ocean load. Only the plan's final points
// are updated; under LTS dormant accelerations keep their garbage until
// their own predictor wipes it.
func (rs *rankState) solidUpdate() {
	twoOmega := float32(0)
	if rs.opts.Rotation {
		twoOmega = float32(2 * rs.opts.RotationRate)
	}
	for kind, fs := range rs.solid {
		if fs == nil {
			continue
		}
		list, n := rs.lp.final[kind].list, rs.lp.final[kind].n
		rs.pool.sweepRange(rs.scr, n, &rs.updateBusy, func(lo, hi int) {
			for _, f := range fs {
				for q := lo; q < hi; q++ {
					i := q
					if list != nil {
						i = int(list[q])
					}
					m := f.massInv[i]
					ax, ay, az := f.ax[i]*m, f.ay[i]*m, f.az[i]*m
					// Coriolis: a -= 2 Omega x v with Omega = (0, 0, omega).
					// The lumped-mass form is exact pointwise because both the
					// force and the mass carry the same rho*JacW weights.
					if twoOmega != 0 {
						ax += twoOmega * f.vy[i]
						ay -= twoOmega * f.vx[i]
					}
					// Background gravity (Cowling-style local term): the
					// linearized restoring tensor H = (g/r)(I - rhat rhat)
					// + (dg/dr) rhat rhat applied to the displacement.
					if f.gOverR != nil {
						dx, dy, dz := f.dx[i], f.dy[i], f.dz[i]
						rx, ry, rz := f.rhatX[i], f.rhatY[i], f.rhatZ[i]
						ur := dx*rx + dy*ry + dz*rz
						gr := f.gOverR[i]
						dg := f.dgdr[i]
						ax -= gr*(dx-ur*rx) + dg*ur*rx
						ay -= gr*(dy-ur*ry) + dg*ur*ry
						az -= gr*(dz-ur*rz) + dg*ur*rz
					}
					// The acceleration is final here (bar the few ocean-load
					// points below): flush it, so the corrector and the next
					// predictor never build a velocity from a tiny value.
					f.ax[i], f.ay[i], f.az[i] = ftz(ax), ftz(ay), ftz(az)
				}
			}
		})
		flops := rs.fc.SolidMassDiv
		bytes := rs.bc.SolidMassDiv
		if twoOmega != 0 {
			flops += rs.fc.Coriolis
			bytes += rs.bc.Coriolis
		}
		if fs[0].gOverR != nil {
			flops += rs.fc.Gravity
			bytes += rs.bc.Gravity
		}
		rs.prof.AddFlops(perf.PhaseUpdate, flops*int64(n*len(fs)))
		rs.prof.AddBytes(perf.PhaseUpdate, bytes*int64(n*len(fs)))
	}
	// Ocean load: rescale the normal component of the free-surface
	// acceleration by M/(M+Mw). Few points; inline.
	if rs.oceanFactor != nil {
		rs.prof.Time(perf.PhaseUpdate, func() {
			sl := &rs.local.Surface
			for _, cm := range rs.solid[earthmodel.RegionCrustMantle] {
				for i, pt := range sl.Pts {
					an := cm.ax[pt]*sl.Nx[i] + cm.ay[pt]*sl.Ny[i] + cm.az[pt]*sl.Nz[i]
					scale := an * (1 - rs.oceanFactor[i])
					cm.ax[pt] = ftz(cm.ax[pt] - scale*sl.Nx[i])
					cm.ay[pt] = ftz(cm.ay[pt] - scale*sl.Ny[i])
					cm.az[pt] = ftz(cm.az[pt] - scale*sl.Nz[i])
				}
			}
			rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.OceanPoint*int64(len(sl.Pts)*rs.ns))
			rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.OceanPoint*int64(len(sl.Pts)*rs.ns))
		})
	}
}

// corrector runs the Newmark correction for every solid field, and
// captures the final (mass-divided) acceleration of the passes with a
// hold level into their hold arrays for the next predictor. The fluid
// correction already ran under the solid halo (finishSolidStage).
func (rs *rankState) corrector() {
	for kind, fs := range rs.solid {
		if fs == nil {
			continue
		}
		n := 0
		for _, ps := range rs.lp.passes[kind] {
			list, li, half := ps.list, ps.hold, ps.dt/2
			rs.pool.sweepRange(rs.scr, ps.n, &rs.updateBusy, func(lo, hi int) {
				for _, f := range fs {
					var hx, hy, hz []float32
					if li > 0 {
						hx, hy, hz = f.hx[li], f.hy[li], f.hz[li]
					}
					for q := lo; q < hi; q++ {
						i := q
						if list != nil {
							i = int(list[q])
						}
						f.vx[i] += half * f.ax[i]
						f.vy[i] += half * f.ay[i]
						f.vz[i] += half * f.az[i]
						if hx != nil {
							hx[q], hy[q], hz[q] = f.ax[i], f.ay[i], f.az[i]
						}
					}
				}
			})
			n += ps.n
		}
		rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.SolidCorrector*int64(n*len(fs)))
		rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.SolidCorrector*int64(n*len(fs)))
	}
}

// fluidCorrector runs the fluid Newmark correction from
// finishSolidStage, under the in-flight solid halo: the fluid arrays are
// final once the rest of the mass division is done, and nothing later in
// the step reads them.
func (rs *rankState) fluidCorrector() {
	fls := rs.fluid
	if fls == nil {
		return
	}
	n := 0
	for _, ps := range rs.lp.passes[earthmodel.RegionOuterCore] {
		list, li, half := ps.list, ps.hold, ps.dt/2
		rs.pool.sweepRange(rs.scr, ps.n, &rs.updateBusy, func(lo, hi int) {
			for _, fl := range fls {
				var h []float32
				if li > 0 {
					h = fl.hChi[li]
				}
				for q := lo; q < hi; q++ {
					i := q
					if list != nil {
						i = int(list[q])
					}
					fl.chiDot[i] += half * fl.chiDdot[i]
					if h != nil {
						h[q] = fl.chiDdot[i]
					}
				}
			}
		})
		n += ps.n
	}
	rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.FluidCorrector*int64(n*len(fls)))
	rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.FluidCorrector*int64(n*len(fls)))
}
