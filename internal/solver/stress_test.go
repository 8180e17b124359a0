package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/simd"
)

// stressFixture is a synthetic solid region with random metric and
// material blocks, a set of scratch blocks with random reference
// gradients, and (nsls > 0) an attState with random coefficients and
// random non-zero memory variables.
type stressFixture struct {
	reg                    *mesh.Region
	att                    *attState
	t1, t2, t3, s1, s2, s3 compBlocks
}

func newStressFixture(rng *rand.Rand, nspec, nsls int) *stressFixture {
	fx := &stressFixture{reg: mesh.NewRegion(earthmodel.RegionCrustMantle, nspec)}
	reg := fx.reg
	for _, a := range [][]float32{reg.Xix, reg.Xiy, reg.Xiz, reg.Etax, reg.Etay, reg.Etaz,
		reg.Gamx, reg.Gamy, reg.Gamz} {
		for i := range a {
			a[i] = float32(rng.NormFloat64()) * 1e-5
		}
	}
	for i := range reg.Jac {
		reg.Jac[i] = 1e14 * (1 + rng.Float32())
		reg.Mu[i] = 7e10 * (1 + rng.Float32())
		reg.Kappa[i] = 1.3e11 * (1 + rng.Float32())
	}
	fx.randomGradients(rng)
	if nsls > 0 {
		att := &attState{
			nsls:  nsls,
			alpha: make([]float32, nspec*nsls),
			beta:  make([]float32, nspec*nsls),
			muFac: make([]float32, nspec),
			r:     make([]float32, nspec*mesh.NGLL3*nsls*6),
		}
		for i := range att.alpha {
			att.alpha[i] = 0.9 + 0.1*rng.Float32()
			att.beta[i] = 1e-3 * rng.Float32()
		}
		for i := range att.muFac {
			att.muFac[i] = 1 + 0.05*rng.Float32()
		}
		for i := range att.r {
			att.r[i] = float32(rng.NormFloat64()) * 1e3
		}
		fx.att = att
	}
	return fx
}

// blocks splits three directions' component blocks into the nine
// padded blocks <dir><comp>, direction-major.
func blocks(d1, d2, d3 *compBlocks) (out [9][]float32) {
	for d, cb := range []*compBlocks{d1, d2, d3} {
		for c := 0; c < 3; c++ {
			out[3*d+c] = cb[c*pad : (c+1)*pad]
		}
	}
	return out
}

func (fx *stressFixture) randomGradients(rng *rand.Rand) {
	for _, t := range blocks(&fx.t1, &fx.t2, &fx.t3) {
		for p := range t {
			t[p] = float32(rng.NormFloat64()) * 1e-3
		}
	}
}

// rIndex is the slot of att.r holding component c of mechanism m at
// point ip = elem*125+point: the [elem][mech][comp][point] order only
// stressStage and these tests know.
func rIndex(nsls, ip, m, c int) int {
	e, p := ip/mesh.NGLL3, ip%mesh.NGLL3
	return ((e*nsls+m)*6+c)*mesh.NGLL3 + p
}

func (fx *stressFixture) stage(e int) {
	stressStage(fx.reg, e, fx.att, &fx.t1, &fx.t2, &fx.t3, &fx.s1, &fx.s2, &fx.s3)
}

// stressReference is the pointwise stage written as a plain indexed
// loop over region-long arrays, with the memory variables in their own
// r[mech][comp][elem*125+point] arrays: the arithmetic stressStage must
// reproduce bit for bit, on storage that shares nothing with its
// layout. t and s are the nine gradient and flux blocks <dir><comp>,
// direction-major.
func stressReference(reg *mesh.Region, e int, att *attState, r [][6][]float32, t [9][]float32, s *[9][mesh.NGLL3]float32) {
	t1x, t1y, t1z, t2x, t2y, t2z, t3x, t3y, t3z := t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7], t[8]
	for p := 0; p < mesh.NGLL3; p++ {
		ip := e*mesh.NGLL3 + p
		xix, xiy, xiz := reg.Xix[ip], reg.Xiy[ip], reg.Xiz[ip]
		etx, ety, etz := reg.Etax[ip], reg.Etay[ip], reg.Etaz[ip]
		gmx, gmy, gmz := reg.Gamx[ip], reg.Gamy[ip], reg.Gamz[ip]

		duxdx := xix*t1x[p] + etx*t2x[p] + gmx*t3x[p]
		duxdy := xiy*t1x[p] + ety*t2x[p] + gmy*t3x[p]
		duxdz := xiz*t1x[p] + etz*t2x[p] + gmz*t3x[p]
		duydx := xix*t1y[p] + etx*t2y[p] + gmx*t3y[p]
		duydy := xiy*t1y[p] + ety*t2y[p] + gmy*t3y[p]
		duydz := xiz*t1y[p] + etz*t2y[p] + gmz*t3y[p]
		duzdx := xix*t1z[p] + etx*t2z[p] + gmx*t3z[p]
		duzdy := xiy*t1z[p] + ety*t2z[p] + gmy*t3z[p]
		duzdz := xiz*t1z[p] + etz*t2z[p] + gmz*t3z[p]

		exy := 0.5 * (duxdy + duydx)
		exz := 0.5 * (duxdz + duzdx)
		eyz := 0.5 * (duydz + duzdy)
		tr := duxdx + duydy + duzdz

		var muFac float32 = 1
		if att != nil {
			muFac = att.muFac[e]
		}
		mu := reg.Mu[ip] * muFac
		lam := reg.Kappa[ip] - (2.0/3.0)*mu

		sxx := lam*tr + 2*mu*duxdx
		syy := lam*tr + 2*mu*duydy
		szz := lam*tr + 2*mu*duzdz
		sxy := 2 * mu * exy
		sxz := 2 * mu * exz
		syz := 2 * mu * eyz

		if att != nil {
			third := tr * (1.0 / 3.0)
			dev := [6]float32{duxdx - third, duydy - third, duzdz - third, exy, exz, eyz}
			sig := [6]*float32{&sxx, &syy, &szz, &sxy, &sxz, &syz}
			for m := 0; m < att.nsls; m++ {
				al := att.alpha[e*att.nsls+m]
				be := att.beta[e*att.nsls+m] * mu
				for c := 0; c < 6; c++ {
					*sig[c] -= r[m][c][ip]
				}
				for c := 0; c < 6; c++ {
					r[m][c][ip] = al*r[m][c][ip] + be*2*dev[c]
				}
			}
		}

		jac := reg.Jac[ip]
		s[0][p] = jac * (sxx*xix + sxy*xiy + sxz*xiz)
		s[1][p] = jac * (sxy*xix + syy*xiy + syz*xiz)
		s[2][p] = jac * (sxz*xix + syz*xiy + szz*xiz)
		s[3][p] = jac * (sxx*etx + sxy*ety + sxz*etz)
		s[4][p] = jac * (sxy*etx + syy*ety + syz*etz)
		s[5][p] = jac * (sxz*etx + syz*ety + szz*etz)
		s[6][p] = jac * (sxx*gmx + sxy*gmy + sxz*gmz)
		s[7][p] = jac * (sxy*gmx + syy*gmy + syz*gmz)
		s[8][p] = jac * (sxz*gmx + syz*gmy + szz*gmz)
	}
}

// bothBodies runs f once per body of the pointwise stages and the Vec4
// contractions: the 8-lane assembly (skipped on hosts without it) and
// the Go fallback.
func bothBodies(t *testing.T, f func(t *testing.T)) {
	t.Run("avx2", func(t *testing.T) {
		if !simd.Vector() {
			t.Skip("no AVX2 on this host")
		}
		f(t)
	})
	t.Run("go", func(t *testing.T) {
		simd.ForceGo(t)
		f(t)
	})
}

// The shared stage against the reference loop, bit for bit, for both of
// its bodies: with and without attenuation, two consecutive steps (the
// second reads the memory variables the first wrote), on the first and
// the last element of the region — and every memory variable of the
// region is compared, so a write outside the visited element's slab
// shows up too.
func TestStressStageMatchesReference(t *testing.T) {
	const nspec = 4
	for _, nsls := range []int{0, 3} {
		t.Run(fmt.Sprintf("nsls=%d", nsls), func(t *testing.T) {
			bothBodies(t, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(7 + nsls)))
				fx := newStressFixture(rng, nspec, nsls)
				// The reference's memory variables: the same start values
				// in [mech][comp][elem*125+point] arrays.
				ref := make([][6][]float32, nsls)
				for m := range ref {
					for c := range ref[m] {
						ref[m][c] = make([]float32, nspec*mesh.NGLL3)
						for ip := range ref[m][c] {
							ref[m][c][ip] = fx.att.r[rIndex(nsls, ip, m, c)]
						}
					}
				}
				for step := 0; step < 2; step++ {
					for _, e := range []int{0, nspec - 1} {
						fx.randomGradients(rng)
						var want [9][mesh.NGLL3]float32
						stressReference(fx.reg, e, fx.att, ref, blocks(&fx.t1, &fx.t2, &fx.t3), &want)
						fx.stage(e)
						for bi, s := range blocks(&fx.s1, &fx.s2, &fx.s3) {
							for p := 0; p < mesh.NGLL3; p++ {
								if math.Float32bits(s[p]) != math.Float32bits(want[bi][p]) {
									t.Fatalf("step %d elem %d: flux block %d point %d = %g, reference %g",
										step, e, bi, p, s[p], want[bi][p])
								}
							}
						}
					}
					for m := range ref {
						for c := range ref[m] {
							for ip, w := range ref[m][c] {
								if got := fx.att.r[rIndex(nsls, ip, m, c)]; math.Float32bits(got) != math.Float32bits(w) {
									t.Fatalf("step %d: r[elem %d][mech %d][comp %d][point %d] = %g, reference %g",
										step, ip/mesh.NGLL3, m, c, ip%mesh.NGLL3, got, w)
								}
							}
						}
					}
				}
			})
		})
	}
}

// clone shares the mesh-static coefficient tables and owns zeroed
// memory variables of the same length; r is one flat
// [elem][mech][comp][point] array — an element's slab is nsls*6
// lane-contiguous rows of 125 — that the state census walks to its last
// slot.
func TestAttStateLayout(t *testing.T) {
	const nspec = 3
	fit, err := earthmodel.FitAttenuation(1.0/500, 1.0/20, earthmodel.DefaultNSLS)
	if err != nil {
		t.Fatal(err)
	}
	reg := mesh.NewRegion(earthmodel.RegionCrustMantle, nspec)
	for e := range reg.Qmu {
		reg.Qmu[e] = 300
	}
	a := newAttState(reg, fit, 0.1)
	if want := nspec * mesh.NGLL3 * fit.NSLS * 6; len(a.r) != want {
		t.Fatalf("len(r) = %d, want %d", len(a.r), want)
	}
	if len(a.alpha) != nspec*fit.NSLS || len(a.beta) != nspec*fit.NSLS || len(a.muFac) != nspec {
		t.Fatalf("coefficient tables: %d alpha, %d beta, %d muFac", len(a.alpha), len(a.beta), len(a.muFac))
	}
	a.r[5] = 1
	c := a.clone()
	if c.nsls != a.nsls || &c.alpha[0] != &a.alpha[0] || &c.beta[0] != &a.beta[0] || &c.muFac[0] != &a.muFac[0] {
		t.Error("clone does not share nsls/alpha/beta/muFac")
	}
	if len(c.r) != len(a.r) || &c.r[0] == &a.r[0] {
		t.Fatalf("clone must own an r of equal length (len %d vs %d)", len(c.r), len(a.r))
	}
	for i, v := range c.r {
		if v != 0 {
			t.Fatalf("clone r[%d] = %g, want 0", i, v)
		}
	}

	rs := &rankState{}
	rs.solid[earthmodel.RegionCrustMantle] = []*solidField{{reg: reg, att: c}}
	if _, n := rs.stateCensus(); n != 0 {
		t.Fatalf("census of a zeroed state counts %d", n)
	}
	// The last [elem][mech][comp][point] slot.
	last := rIndex(fit.NSLS, nspec*mesh.NGLL3-1, fit.NSLS-1, 5)
	if last != len(c.r)-1 {
		t.Fatalf("last slot of r is %d, want %d", last, len(c.r)-1)
	}
	c.r[last] = math.Float32frombits(1)
	if _, n := rs.stateCensus(); n != 0 {
		t.Fatalf("census reads the slab of an element no visit has woken (%d)", n)
	}
	c.woke[nspec-1] = true
	if _, n := rs.stateCensus(); n != 1 {
		t.Errorf("census counts %d subnormals, want the 1 planted in the last slot of r", n)
	}
}

// BenchmarkStressStage prices one element visit of the pointwise stage
// (ns/op is per element): attenuation off/on, one element cache-hot or
// 3 000 elements (45 MB of metric, material and memory-variable
// streams, far past the last-level cache share) visited in sequence or
// in a shuffled order like the colour classes'. Both bodies: the cases
// without a suffix run what this host runs in production, the /go cases
// force the fallback (what a host without AVX2 pays). No allocation.
func BenchmarkStressStage(b *testing.B) {
	for _, nsls := range []int{0, earthmodel.DefaultNSLS} {
		for _, c := range []struct {
			name    string
			nspec   int
			shuffle bool
		}{
			{"hot1", 1, false},
			{"cold3000/seq", 3000, false},
			{"cold3000/shuffled", 3000, true},
		} {
			run := func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				fx := newStressFixture(rng, c.nspec, nsls)
				order := rng.Perm(c.nspec)
				if !c.shuffle {
					for i := range order {
						order[i] = i
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fx.stage(order[i%c.nspec])
				}
			}
			name := fmt.Sprintf("nsls=%d/%s", nsls, c.name)
			b.Run(name, run)
			if simd.Vector() {
				b.Run(name+"/go", func(b *testing.B) {
					simd.ForceGo(b)
					run(b)
				})
			}
		}
	}
}
