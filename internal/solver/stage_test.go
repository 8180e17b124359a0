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

var nan32 = float32(math.NaN())

// sameBits is bit equality, except that any NaN equals any NaN: which
// operand's payload and sign a NaN result inherits depends on the
// operand order of each instruction, which is the compiler's choice in
// the Go bodies and not part of the contract.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// special are the values the integrator can meet at the edges of its
// range: signed zeros, subnormals, normals below the 2^-80 flush
// threshold and on both sides of it, infinities and NaN.
var special = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(0x007fffff), 1e-40,
	0x1p-90, -0x1p-100, 0x1p-126,
	0x1p-80, -0x1p-80, math.Float32frombits(flushExp - 1), -math.Float32frombits(flushExp - 1),
	float32(math.Inf(1)), float32(math.Inf(-1)), nan32,
	math.MaxFloat32, -math.MaxFloat32,
}

// seed overwrites about one value in four of each array with a special
// one.
func seed(rng *rand.Rand, arrs ...[]float32) {
	for _, a := range arrs {
		for i := range a {
			if rng.Intn(4) == 0 {
				a[i] = special[rng.Intn(len(special))]
			}
		}
	}
}

// poisonPads fills the three pad lanes of every padded block of the
// arrays with NaN.
func poisonPads(arrs ...[]float32) {
	for _, a := range arrs {
		for lo := 0; lo < len(a); lo += pad {
			a[lo+125], a[lo+126], a[lo+127] = nan32, nan32, nan32
		}
	}
}

// statics lists the element-static arrays the stages read.
func statics(reg *mesh.Region) []*[]float32 {
	return []*[]float32{&reg.Xix, &reg.Xiy, &reg.Xiz, &reg.Etax, &reg.Etay, &reg.Etaz,
		&reg.Gamx, &reg.Gamy, &reg.Gamz, &reg.Jac, &reg.Mu, &reg.Kappa, &reg.Rho}
}

// clone deep-copies the fixture: same statics, gradients and memory
// variables on storage of its own.
func (fx *stressFixture) clone() *stressFixture {
	c := &stressFixture{reg: mesh.NewRegion(fx.reg.Kind, fx.reg.NSpec)}
	src := statics(fx.reg)
	for i, dst := range statics(c.reg) {
		copy(*dst, *src[i])
	}
	c.t1, c.t2, c.t3, c.s1, c.s2, c.s3 = fx.t1, fx.t2, fx.t3, fx.s1, fx.s2, fx.s3
	if fx.att != nil {
		a := *fx.att
		a.r = append([]float32(nil), fx.att.r...)
		c.att = &a
	}
	return c
}

// compareLive fails on the first of the 125 live lanes of any padded
// block where the two bodies disagree; with finite set, a NaN in a live
// lane of the assembly's output is a pad lane (or an unwritten output
// lane) leaking.
func compareLive(t *testing.T, what string, vec, ref []float32, finite bool) {
	t.Helper()
	for lo := 0; lo < len(vec); lo += pad {
		for p := 0; p < mesh.NGLL3; p++ {
			v, g := vec[lo+p], ref[lo+p]
			if !sameBits(v, g) {
				t.Fatalf("%s block %d point %d: assembly %g (%#08x), Go %g (%#08x)", what, lo/pad, p,
					v, math.Float32bits(v), g, math.Float32bits(g))
			}
			if finite && v != v {
				t.Fatalf("%s block %d point %d: NaN reached a live lane", what, lo/pad, p)
			}
		}
	}
}

// The assembly stress stage against stressStageGo, bit for bit: without
// and with attenuation, on random fixtures and on fixtures seeded with
// zeros, subnormals, sub-threshold normals, infinities and NaN (in the
// gradients, the memory variables and the statics), two consecutive
// steps, first and last element. The pad lanes of the gradient blocks
// hold NaN and the flux blocks start as NaN; every memory variable of
// the region is compared, so a store outside the element's slab — or
// one of the 16th vector's three dead lanes landing in the next row —
// shows up.
func TestVectorStressStageMatchesGo(t *testing.T) {
	if !simd.Vector() {
		t.Skip("no AVX2 on this host")
	}
	const nspec = 3
	for _, nsls := range []int{0, 1, 3} {
		for _, seeded := range []bool{false, true} {
			t.Run(fmt.Sprintf("nsls=%d/seeded=%v", nsls, seeded), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(40 + nsls)))
				vec := newStressFixture(rng, nspec, nsls)
				if seeded {
					for _, a := range statics(vec.reg) {
						seed(rng, *a)
					}
					if vec.att != nil {
						seed(rng, vec.att.r)
					}
				}
				ref := vec.clone()
				for step := 0; step < 2; step++ {
					for _, e := range []int{0, nspec - 1} {
						vec.randomGradients(rng)
						if seeded {
							seed(rng, vec.t1[:], vec.t2[:], vec.t3[:])
						}
						poisonPads(vec.t1[:], vec.t2[:], vec.t3[:])
						for _, s := range [][]float32{vec.s1[:], vec.s2[:], vec.s3[:]} {
							for i := range s {
								s[i] = nan32
							}
						}
						ref.t1, ref.t2, ref.t3, ref.s1, ref.s2, ref.s3 = vec.t1, vec.t2, vec.t3, vec.s1, vec.s2, vec.s3

						stressStageVec(vec.reg, e, vec.att, &vec.t1, &vec.t2, &vec.t3, &vec.s1, &vec.s2, &vec.s3)
						stressStageGo(ref.reg, e, ref.att, &ref.t1, &ref.t2, &ref.t3, &ref.s1, &ref.s2, &ref.s3)

						what := fmt.Sprintf("step %d elem %d flux", step, e)
						compareLive(t, what+" s1", vec.s1[:], ref.s1[:], !seeded)
						compareLive(t, what+" s2", vec.s2[:], ref.s2[:], !seeded)
						compareLive(t, what+" s3", vec.s3[:], ref.s3[:], !seeded)
						if vec.att == nil {
							continue
						}
						for i, v := range vec.att.r {
							if g := ref.att.r[i]; !sameBits(v, g) || (!seeded && v != v) {
								t.Fatalf("step %d elem %d: r[%d] (elem %d row %d point %d): assembly %g, Go %g",
									step, e, i, i/(nsls*6*mesh.NGLL3), i/mesh.NGLL3%(nsls*6), i%mesh.NGLL3, v, g)
							}
						}
					}
				}
			})
		}
	}
}

// fluidFixture is a synthetic fluid region with random metrics, Jacobian
// and density, and six padded blocks.
type fluidFixture struct {
	reg                    *mesh.Region
	t1, t2, t3, s1, s2, s3 [pad]float32
}

func newFluidFixture(rng *rand.Rand, nspec int) *fluidFixture {
	fx := &fluidFixture{reg: mesh.NewRegion(earthmodel.RegionOuterCore, nspec)}
	reg := fx.reg
	for _, a := range [][]float32{reg.Xix, reg.Xiy, reg.Xiz, reg.Etax, reg.Etay, reg.Etaz,
		reg.Gamx, reg.Gamy, reg.Gamz} {
		for i := range a {
			a[i] = float32(rng.NormFloat64()) * 1e-5
		}
	}
	for i := range reg.Jac {
		reg.Jac[i] = 1e14 * (1 + rng.Float32())
		reg.Rho[i] = 1e4 * (1 + rng.Float32())
	}
	return fx
}

// The assembly fluid stage against fluidStageGo, same recipe as
// TestVectorStressStageMatchesGo (a seeded density of zero makes
// jac/rho an infinity or a NaN in both bodies).
func TestVectorFluidStageMatchesGo(t *testing.T) {
	if !simd.Vector() {
		t.Skip("no AVX2 on this host")
	}
	const nspec = 3
	for _, seeded := range []bool{false, true} {
		t.Run(fmt.Sprintf("seeded=%v", seeded), func(t *testing.T) {
			rng := rand.New(rand.NewSource(51))
			fx := newFluidFixture(rng, nspec)
			if seeded {
				for _, a := range statics(fx.reg) {
					seed(rng, *a)
				}
			}
			for _, e := range []int{0, nspec - 1} {
				for _, tb := range []*[pad]float32{&fx.t1, &fx.t2, &fx.t3} {
					for p := range tb {
						tb[p] = float32(rng.NormFloat64()) * 1e-3
					}
					if seeded {
						seed(rng, tb[:])
					}
					poisonPads(tb[:])
				}
				var vs, gs [3][pad]float32
				for b := range vs {
					for p := range vs[b] {
						vs[b][p], gs[b][p] = nan32, nan32
					}
				}
				fluidStageVec(fx.reg, e, &fx.t1, &fx.t2, &fx.t3, &vs[0], &vs[1], &vs[2])
				fluidStageGo(fx.reg, e, &fx.t1, &fx.t2, &fx.t3, &gs[0], &gs[1], &gs[2])
				for b := range vs {
					compareLive(t, fmt.Sprintf("elem %d s%d", e, b+1), vs[b][:], gs[b][:], !seeded)
				}
			}
		})
	}
}

// BenchmarkFluidStage prices one element visit of the fluid pointwise
// stage (ns/op is per element, cache-hot), both bodies.
func BenchmarkFluidStage(b *testing.B) {
	run := func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		fx := newFluidFixture(rng, 1)
		for _, tb := range []*[pad]float32{&fx.t1, &fx.t2, &fx.t3} {
			for p := range tb {
				tb[p] = float32(rng.NormFloat64()) * 1e-3
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fluidStage(fx.reg, 0, &fx.t1, &fx.t2, &fx.t3, &fx.s1, &fx.s2, &fx.s3)
		}
	}
	b.Run("hot1", run)
	if simd.Vector() {
		b.Run("hot1/go", func(b *testing.B) {
			simd.ForceGo(b)
			run(b)
		})
	}
}
