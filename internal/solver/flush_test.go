package solver

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/simd"
)

func TestFlushToZero(t *testing.T) {
	bits := math.Float32frombits
	threshold := float32(math.Ldexp(1, -80))
	below := bits(math.Float32bits(threshold) - 1) // 2^-80 minus one ulp
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))

	for _, c := range []struct {
		name     string
		in, want float32
	}{
		{"+0", 0, 0},
		{"-0", float32(math.Copysign(0, -1)), 0},
		{"smallest subnormal", bits(1), 0},
		{"largest subnormal", bits(0x007fffff), 0},
		{"-largest subnormal", bits(0x807fffff), 0},
		{"smallest normal", bits(0x00800000), 0},
		{"2^-80 - 1ulp", below, 0},
		{"-(2^-80 - 1ulp)", -below, 0},
		{"2^-80", threshold, threshold},
		{"-2^-80", -threshold, -threshold},
		{"1e-24", 1e-24, 1e-24},
		{"-1", -1, -1},
		{"max", math.MaxFloat32, math.MaxFloat32},
		{"+Inf", inf, inf},
		{"-Inf", -inf, -inf},
	} {
		if got := ftz(c.in); math.Float32bits(got) != math.Float32bits(c.want) {
			t.Errorf("ftz(%s = %g) = %g (bits %08x), want %g (bits %08x)",
				c.name, c.in, got, math.Float32bits(got), c.want, math.Float32bits(c.want))
		}
	}
	if got := ftz(nan); !math.IsNaN(float64(got)) {
		t.Errorf("ftz(NaN) = %g, want NaN", got)
	}

	state := []float32{0, float32(math.Copysign(0, -1)), bits(1), bits(0x007fffff), bits(0x807fffff),
		bits(0x00800000), threshold, -3, 2, -inf}
	peak, sub := census(state)
	if sub != 3 {
		t.Errorf("census counts %d subnormals, want 3", sub)
	}
	if got := bits(peak); got != inf {
		t.Errorf("census peak %g, want +Inf", got)
	}
	if peak, _ = census(state[:9]); bits(peak) != 3 {
		t.Errorf("census peak %g, want 3", bits(peak))
	}
	if peak, _ = census(append(state, nan)); !math.IsNaN(float64(bits(peak))) {
		t.Errorf("census peak %g: a NaN must poison the maximum", bits(peak))
	}
}

// premDoubledGlobe builds the production shape at test size: PREM,
// NEX 8, 6 ranks, doubling layers below the 670 and above the CMB.
func premDoubledGlobe(t testing.TB) (*meshfem.Globe, earthmodel.Model) {
	t.Helper()
	model := earthmodel.NewPREM()
	g, err := meshfem.Build(meshfem.Config{
		NexXi: 8, NProcXi: 1, Model: model,
		Doublings: []float64{5200e3, 3000e3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, model
}

// The wavefront's leading edge decays through the whole float32 range,
// so without the flush a doubled-globe run holds tens of thousands of
// subnormal field values from step ~7 on (and runs 3-8x slower per
// step while it does). Every integrator path — worker counts, batched
// ensembles — must leave none, and must not have flushed the physical
// signal away with them.
func TestNoSubnormalState(t *testing.T) {
	g, model := premDoubledGlobe(t)
	for _, workers := range []int{1, 2} {
		for _, fields := range []int{1, 3} {
			t.Run(fmt.Sprintf("w%d/s%d", workers, fields), func(t *testing.T) {
				// Station B sits 6 degrees from source 0.
				srcs, recvs := batchGlobeSources(t, g, fields)
				res, err := Run(&Simulation{
					Locals: g.Locals, Plans: g.Plans, Model: model,
					Sources: srcs, Receivers: recvs,
					Opts: Options{
						Steps: 40, Workers: workers, CombinedSolidHalo: true,
						Attenuation: true, Rotation: true, Gravity: true, OceanLoad: true,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Subnormals != 0 {
					t.Errorf("%d subnormal values left in the persistent state", res.Subnormals)
				}
				near := res.BySource[0]["B"]
				peak := maxAbs(near.X) + maxAbs(near.Y) + maxAbs(near.Z)
				if !(peak > 1e-12) {
					t.Errorf("near-source station peaks at %g m: the flush ate the signal", peak)
				}
				// peak sums three components; the field maximum bounds
				// each of them.
				if !(res.MaxDisplacement > peak/3) {
					t.Errorf("MaxDisplacement %g below the station peak %g", res.MaxDisplacement, peak)
				}
			})
		}
	}
}

// TestNoSubnormalMetricProducts is a census of the stress and fluid
// stages' first products: after every step it recomputes the reference
// gradients of each element the step's force sweeps computed (a
// non-zero gathered field, or woken memory variables) and counts the
// metric×gradient products that are float32 subnormals. The field is
// flushed, so such a product needs a metric entry that is float64
// rounding residue (~1e-25); the mesher snaps those to +0
// (meshfem.snapResidue), and the count must be 0.
func TestNoSubnormalMetricProducts(t *testing.T) {
	simd.ForceGo(t)
	g, model := premDoubledGlobe(t)
	srcs, recvs := batchGlobeSources(t, g, 1)
	var products, visits atomic.Int64
	onEveryStep(t, func(rs *rankState, step int) {
		var ks kernelScratch
		sub, n := int64(0), int64(0)
		// count tallies the subnormal products of element e's metric
		// with the reference gradients of the comps component blocks.
		count := func(reg *mesh.Region, e, comps int) {
			rs.kern.grad(ks.u[:pad], ks.t1[:pad], ks.t2[:pad], ks.t3[:pad])
			for c := 1; c < comps; c++ {
				lo := c * pad
				rs.kern.grad(ks.u[lo:lo+pad], ks.t1[lo:lo+pad], ks.t2[lo:lo+pad], ks.t3[lo:lo+pad])
			}
			metric := [3][3][]float32{
				{reg.Xix, reg.Xiy, reg.Xiz}, {reg.Etax, reg.Etay, reg.Etaz}, {reg.Gamx, reg.Gamy, reg.Gamz},
			}
			for p := 0; p < mesh.NGLL3; p++ {
				ip := e*mesh.NGLL3 + p
				for c := 0; c < comps; c++ {
					grads := [3]float32{ks.t1[c*pad+p], ks.t2[c*pad+p], ks.t3[c*pad+p]}
					for dir, row := range metric {
						for _, m := range row {
							if x := m[ip] * grads[dir]; x != 0 && math.Abs(float64(x)) < 0x1p-126 {
								sub++
							}
						}
					}
				}
			}
			n++
		}
		for _, fs := range rs.solid {
			for _, f := range fs {
				for e := 0; e < f.reg.NSpec; e++ {
					var or uint32
					for p, gp := range f.reg.Ibool[e*mesh.NGLL3 : (e+1)*mesh.NGLL3] {
						u := f.d[gp]
						ks.u[p], ks.u[pad+p], ks.u[2*pad+p] = u[0], u[1], u[2]
						or |= math.Float32bits(u[0]) | math.Float32bits(u[1]) | math.Float32bits(u[2])
					}
					if or<<1 != 0 || (f.att != nil && f.att.woke[e]) {
						count(f.reg, e, 3)
					}
				}
			}
		}
		for _, fl := range rs.fluid {
			for e := 0; e < fl.reg.NSpec; e++ {
				var or uint32
				for p, gp := range fl.reg.Ibool[e*mesh.NGLL3 : (e+1)*mesh.NGLL3] {
					ks.u[p] = fl.chi[gp]
					or |= math.Float32bits(fl.chi[gp])
				}
				if or<<1 != 0 {
					count(fl.reg, e, 1)
				}
			}
		}
		products.Add(sub)
		visits.Add(n)
	})
	if _, err := Run(&Simulation{
		Locals: g.Locals, Plans: g.Plans, Model: model, Sources: srcs, Receivers: recvs,
		Opts: Options{Steps: 20, Workers: 2,
			Attenuation: true, Rotation: true, Gravity: true, OceanLoad: true},
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d element visits recomputed, %d subnormal metric×gradient products", visits.Load(), products.Load())
	if visits.Load() == 0 {
		t.Fatal("no element visit was recomputed: the census saw nothing")
	}
	if n := products.Load(); n != 0 {
		t.Errorf("%d subnormal metric×gradient products over %d element visits", n, visits.Load())
	}
}
