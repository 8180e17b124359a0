package solver

import (
	"fmt"
	"math"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/meshfem"
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
