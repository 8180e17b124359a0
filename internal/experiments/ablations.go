package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"specglobe/internal/earthmodel"
	"specglobe/internal/gll"
	"specglobe/internal/meshfem"
	"specglobe/internal/renumber"
	"specglobe/internal/simd"
	"specglobe/internal/solver"
	"specglobe/internal/stations"
)

// Ablation experiments for the section 4 engineering work: kernel
// variants (4.3), element renumbering (4.2) and station location (4.4).

// KernelResult reproduces the section 4.3 comparison.
type KernelResult struct {
	// Vec4 and Scalar are solver runs under the two force kernels.
	Vec4, Scalar time.Duration
	// ScalarBlock and BlasBlock are the time of one three-direction
	// gradient of a 125-point block with the plain loops and with the
	// BLAS-with-copies path, which lives in internal/simd only.
	ScalarBlock, BlasBlock time.Duration
	// Vec4GainPct is the speedup of the vectorized kernels over the
	// plain loops (paper: 15-20% on SSE/Altivec).
	Vec4GainPct float64
	// BlasPenaltyPct is the slowdown of the BLAS path vs plain loops
	// per block (the paper found BLAS "significantly slows down the
	// code").
	BlasPenaltyPct float64
}

// Kernels times the two force kernels on identical solver runs, and the
// BLAS path against the plain loops per block.
func Kernels(nex, steps int) (*KernelResult, error) {
	g, err := buildGlobe(earthmodel.EarthLike(), nex, 1, nil)
	if err != nil {
		return nil, err
	}
	out := &KernelResult{}
	for _, k := range []struct {
		kernel solver.Kernel
		dst    *time.Duration
	}{{solver.KernelVec4, &out.Vec4}, {solver.KernelScalar, &out.Scalar}} {
		t0 := time.Now()
		if _, err := solveCentral(g, solver.Options{Steps: steps, Kernel: k.kernel}); err != nil {
			return nil, err
		}
		*k.dst = time.Since(t0)
	}
	out.ScalarBlock, out.BlasBlock = gradBlockTimes()
	out.Vec4GainPct = 100 * (out.Scalar.Seconds() - out.Vec4.Seconds()) / out.Scalar.Seconds()
	out.BlasPenaltyPct = 100 * (out.BlasBlock.Seconds() - out.ScalarBlock.Seconds()) / out.ScalarBlock.Seconds()
	return out, nil
}

// gradBlockTimes returns the best-of-five time per block of
// simd.GradScalar and simd.GradBlas over a strip of distinct blocks.
func gradBlockTimes() (scalar, blas time.Duration) {
	const blocks = 512
	m := simd.MatrixFromF64(gll.New(gll.Degree).HPrime)
	u := make([]float32, blocks*simd.PadLen)
	rng := rand.New(rand.NewSource(1))
	for i := range u {
		u[i] = 2*rng.Float32() - 1
	}
	d1, d2, d3 := make([]float32, len(u)), make([]float32, len(u)), make([]float32, len(u))
	scrIn, scrOut := make([]float32, simd.PadLen), make([]float32, simd.PadLen)
	best := func(grad func(u, d1, d2, d3 []float32)) time.Duration {
		fastest := time.Duration(math.MaxInt64)
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			for lo := 0; lo < len(u); lo += simd.PadLen {
				hi := lo + simd.PadLen
				grad(u[lo:hi], d1[lo:hi], d2[lo:hi], d3[lo:hi])
			}
			fastest = min(fastest, time.Since(t0))
		}
		return fastest / blocks
	}
	scalar = best(func(u, d1, d2, d3 []float32) { simd.GradScalar(m, u, d1, d2, d3) })
	blas = best(func(u, d1, d2, d3 []float32) {
		simd.GradBlas(simd.SgemmRef, m, u, d1, d2, d3, scrIn, scrOut)
	})
	return scalar, blas
}

// String renders the kernel comparison.
func (r *KernelResult) String() string {
	return fmt.Sprintf(
		"SSE20: force kernels — solver runs: vec4 %v, scalar %v; per block: scalar %v, blas %v\n"+
			"  manual vectorization gain over plain loops: %.1f%% (paper: 15-20%%)\n"+
			"  BLAS-with-copies penalty vs plain loops: %+.1f%% (paper: BLAS significantly slower)\n",
		r.Vec4.Round(time.Millisecond), r.Scalar.Round(time.Millisecond),
		r.ScalarBlock, r.BlasBlock, r.Vec4GainPct, r.BlasPenaltyPct)
}

// RenumberResult reproduces the section 4.2 sorting experiment.
type RenumberResult struct {
	Natural, RCM, Multilevel, Random time.Duration
	// RCMGainPct is the gain of reverse Cuthill-McKee over the natural
	// mesher order (paper: at most ~5%).
	RCMGainPct float64
	// Strides are the mean global-index strides of each ordering, the
	// locality proxy the sort optimizes.
	StrideNatural, StrideRCM, StrideRandom float64
}

// Renumbering times the solver under different element orderings of the
// same mesh.
func Renumbering(nex, steps int) (*RenumberResult, error) {
	build := func(permute string) (*meshfem.Globe, float64, error) {
		g, err := buildGlobe(earthmodel.EarthLike(), nex, 1, nil)
		if err != nil {
			return nil, 0, err
		}
		var stride float64
		for _, l := range g.Locals {
			for _, reg := range l.Regions {
				if reg == nil || reg.NSpec == 0 || reg.IsFluid() {
					continue
				}
				adj := renumber.ElementAdjacency(reg)
				var perm []int32
				switch permute {
				case "natural":
					perm = renumber.Identity(reg.NSpec)
				case "rcm":
					perm = renumber.CuthillMcKee(adj)
				case "multilevel":
					perm = renumber.MultilevelCuthillMcKee(adj, 64)
				case "random":
					perm = renumber.Identity(reg.NSpec)
					// Deterministic scramble: reverse + interleave.
					for i, j := 0, len(perm)-1; i < j; i, j = i+2, j-2 {
						perm[i], perm[j] = perm[j], perm[i]
					}
				}
				if err := renumber.PermuteElements(reg, perm); err != nil {
					return nil, 0, err
				}
				// Re-derive the first-touch point numbering for the
				// new element order — the point renumbering of
				// reference [7] that the paper credits as crucial.
				if err := renumber.RenumberPoints(reg, renumber.FirstTouchPointOrder(reg)); err != nil {
					return nil, 0, err
				}
				stride += renumber.MeanStride(reg, renumber.Identity(reg.NSpec))
			}
		}
		return g, stride, nil
	}
	out := &RenumberResult{}
	type cfg struct {
		name string
		tDst *time.Duration
		sDst *float64
	}
	for _, c := range []cfg{
		{"natural", &out.Natural, &out.StrideNatural},
		{"rcm", &out.RCM, &out.StrideRCM},
		{"multilevel", &out.Multilevel, nil},
		{"random", &out.Random, &out.StrideRandom},
	} {
		g, stride, err := build(c.name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := solveCentral(g, solver.Options{Steps: steps}); err != nil {
			return nil, err
		}
		*c.tDst = time.Since(t0)
		if c.sDst != nil {
			*c.sDst = stride
		}
	}
	out.RCMGainPct = 100 * (out.Natural.Seconds() - out.RCM.Seconds()) / out.Natural.Seconds()
	return out, nil
}

// String renders the renumbering comparison.
func (r *RenumberResult) String() string {
	return fmt.Sprintf(
		"CM5: element orderings — natural %v, RCM %v, multilevel %v, scrambled %v\n"+
			"  RCM gain over natural order: %+.1f%% (paper: at most ~5%%, because point\n"+
			"  renumbering already removed most L2 misses)\n"+
			"  mean index stride: natural %.0f, RCM %.0f, scrambled %.0f\n",
		r.Natural.Round(time.Millisecond), r.RCM.Round(time.Millisecond),
		r.Multilevel.Round(time.Millisecond), r.Random.Round(time.Millisecond),
		r.RCMGainPct, r.StrideNatural, r.StrideRCM, r.StrideRandom)
}

// StationResult reproduces the section 4.4 station-location experiment.
type StationResult struct {
	NStations             int
	NonlinearT, FastT     time.Duration
	Speedup               float64
	NonlinearErr, SnapErr float64 // worst residuals (m)
}

// StationLocation times the legacy nonlinear location of a station set
// against the fast nearest-grid-point mode and reports the residuals.
func StationLocation(nex, nStations int) (*StationResult, error) {
	g, err := buildGlobe(earthmodel.EarthLike(), nex, 1, nil)
	if err != nil {
		return nil, err
	}
	net := stations.GlobalNetwork(nStations)
	out := &StationResult{NStations: nStations}

	// Each locator's time is the best of five passes over the same
	// stations: the fast pass takes microseconds, so one preemption
	// would otherwise decide the ratio.
	locate := func(loc func(stations.Station) (stations.Located, error)) ([]stations.Located, time.Duration, error) {
		var best time.Duration
		var locs []stations.Located
		for pass := 0; pass < 5; pass++ {
			locs = locs[:0]
			t0 := time.Now()
			for _, st := range net {
				l, err := loc(st)
				if err != nil {
					return nil, 0, err
				}
				locs = append(locs, l)
			}
			if d := time.Since(t0); pass == 0 || d < best {
				best = d
			}
		}
		return locs, best, nil
	}
	nl, tn, err := locate(func(st stations.Station) (stations.Located, error) { return stations.LocateNonlinear(g, st) })
	if err != nil {
		return nil, err
	}
	fast, tf, err := locate(func(st stations.Station) (stations.Located, error) { return stations.LocateFast(g, st, true) })
	if err != nil {
		return nil, err
	}
	out.NonlinearT, out.NonlinearErr = tn, stations.MaxLocationError(nl)
	out.FastT, out.SnapErr = tf, stations.MaxLocationError(fast)
	out.Speedup = out.NonlinearT.Seconds() / out.FastT.Seconds()
	return out, nil
}

// String renders the station-location comparison.
func (r *StationResult) String() string {
	return fmt.Sprintf(
		"STALOC: %d stations — legacy nonlinear %v, nearest-point %v (%.0fx faster)\n"+
			"  residuals: nonlinear %.2g m, snapped %.4g km (shrinks ~1/NEX; negligible\n"+
			"  at production resolutions, which is why 4.4 drops the interpolation)\n",
		r.NStations, r.NonlinearT.Round(time.Millisecond), r.FastT.Round(time.Microsecond),
		r.Speedup, r.NonlinearErr, r.SnapErr/1e3)
}
