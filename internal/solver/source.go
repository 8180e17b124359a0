package solver

import (
	"math"

	"specglobe/internal/gll"
	"specglobe/internal/mesh"
)

// prepareSource precomputes the nodal force array of a source: the
// moment-tensor part distributes M : grad(lagrange) evaluated at the
// source position over the element's GLL points (the standard SEM
// representation of the equivalent body force -M . grad(delta)), and
// the point-force part distributes F * lagrange.
//
//specfem:noaccount one-time source setup: nodal force distribution computed before stepping
func (rs *rankState) prepareSource(src *Source) sourceLocal {
	reg := rs.local.Regions[src.Kind]
	sl := sourceLocal{src: src}
	pts := gll.Points(gll.Degree)
	lx := gll.Lagrange(pts, src.Ref[0])
	ly := gll.Lagrange(pts, src.Ref[1])
	lz := gll.Lagrange(pts, src.Ref[2])
	dlx := gll.LagrangeDeriv(pts, src.Ref[0])
	dly := gll.LagrangeDeriv(pts, src.Ref[1])
	dlz := gll.LagrangeDeriv(pts, src.Ref[2])

	// Inverse mapping at the source position, interpolated from the
	// stored element-point values.
	w3 := mesh.Weights3D(src.Ref)
	base := src.Elem * mesh.NGLL3
	var inv [9]float64
	for p := 0; p < mesh.NGLL3; p++ {
		ip := base + p
		inv[0] += w3[p] * float64(reg.Xix[ip])
		inv[1] += w3[p] * float64(reg.Xiy[ip])
		inv[2] += w3[p] * float64(reg.Xiz[ip])
		inv[3] += w3[p] * float64(reg.Etax[ip])
		inv[4] += w3[p] * float64(reg.Etay[ip])
		inv[5] += w3[p] * float64(reg.Etaz[ip])
		inv[6] += w3[p] * float64(reg.Gamx[ip])
		inv[7] += w3[p] * float64(reg.Gamy[ip])
		inv[8] += w3[p] * float64(reg.Gamz[ip])
	}

	m := src.MomentTensor
	hasMoment := false
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m[i][j] != 0 {
				hasMoment = true
			}
		}
	}

	for k := 0; k < mesh.NGLL; k++ {
		for j := 0; j < mesh.NGLL; j++ {
			for i := 0; i < mesh.NGLL; i++ {
				p := i + mesh.NGLL*j + mesh.NGLL2*k
				lam := lx[i] * ly[j] * lz[k]
				if hasMoment {
					// grad of the p-th Lagrange basis at the source,
					// in physical coordinates.
					dref := [3]float64{
						dlx[i] * ly[j] * lz[k],
						lx[i] * dly[j] * lz[k],
						lx[i] * ly[j] * dlz[k],
					}
					gx := dref[0]*inv[0] + dref[1]*inv[3] + dref[2]*inv[6]
					gy := dref[0]*inv[1] + dref[1]*inv[4] + dref[2]*inv[7]
					gz := dref[0]*inv[2] + dref[1]*inv[5] + dref[2]*inv[8]
					sl.arr[p][0] += float32(m[0][0]*gx + m[0][1]*gy + m[0][2]*gz)
					sl.arr[p][1] += float32(m[1][0]*gx + m[1][1]*gy + m[1][2]*gz)
					sl.arr[p][2] += float32(m[2][0]*gx + m[2][1]*gy + m[2][2]*gz)
				}
				sl.arr[p][0] += float32(src.Force[0] * lam)
				sl.arr[p][1] += float32(src.Force[1] * lam)
				sl.arr[p][2] += float32(src.Force[2] * lam)
			}
		}
	}
	return sl
}

// addSources injects the source forces of step, which advances the
// state to (step+1)*dt: the source-time function is sampled there. It
// returns the element points it injected at.
func (rs *rankState) addSources(step int) (n int64) {
	for i := range rs.sources {
		sl := &rs.sources[i]
		fs := rs.solid[sl.src.Kind]
		if fs == nil {
			continue
		}
		// Each source drives its own wavefield of the ensemble.
		f := fs[sl.src.Field]
		// Flushed, so a Gaussian onset never injects subnormal forces.
		stf := ftz(float32(sl.src.STF(float64(step+1) * rs.dt)))
		if stf == 0 {
			continue
		}
		base := sl.src.Elem * mesh.NGLL3
		ib := f.reg.Ibool[base : base+mesh.NGLL3]
		for p, g := range ib {
			a := &f.a[g]
			a[0] += stf * sl.arr[p][0]
			a[1] += stf * sl.arr[p][1]
			a[2] += stf * sl.arr[p][2]
		}
		n += mesh.NGLL3
	}
	return n
}

// prepareReceiver resolves a receiver into interpolation weights (or a
// one-hot weight at the nearest GLL point in fast mode) and allocates
// one seismogram per batched wavefield: every station records every source
// of the ensemble.
//
//specfem:noaccount one-time receiver setup: interpolation weights computed before stepping
func (rs *rankState) prepareReceiver(rcv *Receiver, opts *Options, dt float64) recvLocal {
	rl := recvLocal{rcv: rcv, kind: rcv.Kind, elem: rcv.Elem}
	nsamp := opts.Steps / opts.RecordEvery
	rl.out = make([]*Seismogram, rs.ns)
	for s := range rl.out {
		rl.out[s] = &Seismogram{
			Name:        rcv.Name,
			Field:       s,
			Dt:          dt * float64(opts.RecordEvery),
			RecordEvery: opts.RecordEvery,
			X:           make([]float32, 0, nsamp),
			Y:           make([]float32, 0, nsamp),
			Z:           make([]float32, 0, nsamp),
		}
	}
	if rcv.NearestPoint {
		// Snap each reference coordinate to the nearest GLL node (the
		// mapping is monotone per axis, so this is the nearest point).
		pts := gll.Points(gll.Degree)
		var idx [3]int
		for c := 0; c < 3; c++ {
			best, bestD := 0, math.Inf(1)
			for i, x := range pts {
				if d := math.Abs(x - rcv.Ref[c]); d < bestD {
					best, bestD = i, d
				}
			}
			idx[c] = best
		}
		p := idx[0] + mesh.NGLL*idx[1] + mesh.NGLL2*idx[2]
		rl.w[p] = 1
		return rl
	}
	rl.w = mesh.Weights3D(rcv.Ref)
	return rl
}

// record appends one sample to every local seismogram after step has
// completed: the displacement interpolated at the receiver.
//
//specfem:noaccount seismogram interpolation is O(receivers), excluded from the per-element flop model
func (rs *rankState) record() {
	for i := range rs.recvs {
		rl := &rs.recvs[i]
		fs := rs.solid[rl.kind]
		if fs == nil {
			continue
		}
		base := rl.elem * mesh.NGLL3
		ib := fs[0].reg.Ibool[base : base+mesh.NGLL3]
		for s, f := range fs {
			var x, y, z float64
			for p, g := range ib {
				w := rl.w[p]
				if w == 0 {
					continue
				}
				u := &f.d[g]
				x += w * float64(u[0])
				y += w * float64(u[1])
				z += w * float64(u[2])
			}
			rl.out[s].X = append(rl.out[s].X, float32(x))
			rl.out[s].Y = append(rl.out[s].Y, float32(y))
			rl.out[s].Z = append(rl.out[s].Z, float32(z))
		}
	}
}

// flushChunks streams newly recorded samples through Options.OnChunk.
// Whole multiples of StreamChunkSamples are emitted as they complete;
// with final set, the remainder (possibly empty) goes out with Last so
// every (receiver, field) series is terminated exactly once even when
// the run aborts early. Chunks carry copies of the recorder's samples,
// so streaming never perturbs the series the Result reports.
//
//specfem:noaccount streaming copies recorded samples, no arithmetic to account
func (rs *rankState) flushChunks(final bool) {
	every := rs.opts.StreamChunkSamples
	for i := range rs.recvs {
		rl := &rs.recvs[i]
		if rl.closed {
			continue
		}
		n := len(rl.out[0].X)
		for rl.flushed+every <= n {
			rs.emitChunks(rl, rl.flushed+every, false)
		}
		if final {
			rs.emitChunks(rl, n, true)
			rl.closed = true
		}
	}
}

// emitChunks sends samples [rl.flushed, upto) of every field of one
// receiver and advances the flush mark.
func (rs *rankState) emitChunks(rl *recvLocal, upto int, last bool) {
	for _, sg := range rl.out {
		rs.opts.OnChunk(Chunk{
			Name:        sg.Name,
			Field:       sg.Field,
			Start:       rl.flushed,
			Dt:          sg.Dt,
			RecordEvery: sg.RecordEvery,
			X:           append([]float32(nil), sg.X[rl.flushed:upto]...),
			Y:           append([]float32(nil), sg.Y[rl.flushed:upto]...),
			Z:           append([]float32(nil), sg.Z[rl.flushed:upto]...),
			Last:        last,
		})
	}
	rl.flushed = upto
}

// GaussianSTF returns a Gaussian source-time function with the given
// half duration, peaking at t0 (typically ~1.5 half durations so the
// onset is smooth).
func GaussianSTF(halfDuration, t0 float64) func(float64) float64 {
	a := 1 / (halfDuration * halfDuration)
	return func(t float64) float64 {
		d := t - t0
		return math.Exp(-a * d * d)
	}
}

// RickerSTF returns a Ricker wavelet (second derivative of a Gaussian)
// with dominant frequency f0, centered at t0.
func RickerSTF(f0, t0 float64) func(float64) float64 {
	return func(t float64) float64 {
		a := math.Pi * f0 * (t - t0)
		a *= a
		return (1 - 2*a) * math.Exp(-a)
	}
}

// StepSTF returns a smoothed Heaviside (error-function ramp) with the
// given rise time centered at t0 — the moment function of a real
// earthquake reaching its final moment.
func StepSTF(rise, t0 float64) func(float64) float64 {
	return func(t float64) float64 {
		return 0.5 * (1 + math.Erf((t-t0)/rise))
	}
}
