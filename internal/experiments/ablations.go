package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"specglobe/internal/earthmodel"
	"specglobe/internal/gll"
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
	Vec4, Scalar Timing
	// ScalarBlock and BlasBlock are the time of one three-direction
	// gradient of a 125-point block with the plain loops and with the
	// BLAS-with-copies path, which lives in internal/simd only.
	ScalarBlock, BlasBlock Timing
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
	_, p, err := buildGlobe(earthmodel.EarthLike(), nex, 1, nil)
	if err != nil {
		return nil, err
	}
	scalar, blas := gradBlockRuns()
	t, err := bestOf(wallSolve(p, solver.Options{Steps: steps, Kernel: solver.KernelVec4}),
		wallSolve(p, solver.Options{Steps: steps, Kernel: solver.KernelScalar}), scalar, blas)
	if err != nil {
		return nil, err
	}
	out := &KernelResult{Vec4: t[0], Scalar: t[1], ScalarBlock: t[2], BlasBlock: t[3]}
	out.Vec4GainPct = 100 * (out.Scalar.Best.Seconds() - out.Vec4.Best.Seconds()) / out.Scalar.Best.Seconds()
	out.BlasPenaltyPct = 100 * (out.BlasBlock.Best.Seconds() - out.ScalarBlock.Best.Seconds()) / out.ScalarBlock.Best.Seconds()
	return out, nil
}

// gradBlockRuns returns two measurements of the time per block of
// simd.GradScalar and simd.GradBlas over a strip of distinct blocks.
func gradBlockRuns() (scalar, blas func() (time.Duration, error)) {
	const blocks = 512
	m := simd.MatrixFromF64(gll.New(gll.Degree).HPrime)
	u := make([]float32, blocks*simd.PadLen)
	rng := rand.New(rand.NewSource(1))
	for i := range u {
		u[i] = 2*rng.Float32() - 1
	}
	d1, d2, d3 := make([]float32, len(u)), make([]float32, len(u)), make([]float32, len(u))
	scrIn, scrOut := make([]float32, simd.PadLen), make([]float32, simd.PadLen)
	perBlock := func(grad func(u, d1, d2, d3 []float32)) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			t0 := time.Now()
			for lo := 0; lo < len(u); lo += simd.PadLen {
				hi := lo + simd.PadLen
				grad(u[lo:hi], d1[lo:hi], d2[lo:hi], d3[lo:hi])
			}
			return time.Since(t0) / blocks, nil
		}
	}
	scalar = perBlock(func(u, d1, d2, d3 []float32) { simd.GradScalar(m, u, d1, d2, d3) })
	blas = perBlock(func(u, d1, d2, d3 []float32) {
		simd.GradBlas(simd.SgemmRef, m, u, d1, d2, d3, scrIn, scrOut)
	})
	return scalar, blas
}

// String renders the kernel comparison.
func (r *KernelResult) String() string {
	return fmt.Sprintf(
		"SSE20: force kernels — solver runs: vec4 %v, scalar %v\n"+
			"  per block: scalar %v, blas %v\n"+
			"  manual vectorization gain over plain loops: %.1f%% (paper: 15-20%%)\n"+
			"  BLAS-with-copies penalty vs plain loops: %+.1f%% (paper: BLAS significantly slower)\n",
		r.Vec4, r.Scalar, r.ScalarBlock, r.BlasBlock, r.Vec4GainPct, r.BlasPenaltyPct)
}

// RenumberResult reproduces the section 4.2 sorting experiment.
type RenumberResult struct {
	Natural, RCM, Multilevel, Random Timing
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
	build := func(permute string) (problem, float64, error) {
		g, _, err := buildGlobe(earthmodel.EarthLike(), nex, 1, nil)
		if err != nil {
			return problem{}, 0, err
		}
		var stride float64
		for _, l := range g.Locals {
			for _, reg := range l.Regions {
				if reg == nil || reg.NSpec == 0 || reg.IsFluid() {
					continue
				}
				adj := renumber.ElementAdjacency(reg)
				perm := renumber.Identity(reg.NSpec)
				switch permute {
				case "rcm":
					perm = renumber.CuthillMcKee(adj)
				case "multilevel":
					perm = renumber.MultilevelCuthillMcKee(adj, 64)
				case "random":
					// Deterministic scramble: reverse + interleave.
					for i, j := 0, len(perm)-1; i < j; i, j = i+2, j-2 {
						perm[i], perm[j] = perm[j], perm[i]
					}
				}
				if err := renumber.PermuteElements(reg, perm); err != nil {
					return problem{}, 0, err
				}
				// Re-derive the first-touch point numbering for the
				// new element order — the point renumbering of
				// reference [7] that the paper credits as crucial.
				if err := renumber.RenumberPoints(reg, renumber.FirstTouchPointOrder(reg)); err != nil {
					return problem{}, 0, err
				}
				stride += renumber.MeanStride(reg, renumber.Identity(reg.NSpec))
			}
		}
		// The source is located in the permuted mesh.
		p, err := globeProblem(g)
		return p, stride, err
	}
	var strides [4]float64
	runs := make([]func() (time.Duration, error), len(strides))
	for i, name := range []string{"natural", "rcm", "multilevel", "random"} {
		p, stride, err := build(name)
		if err != nil {
			return nil, err
		}
		strides[i] = stride
		runs[i] = wallSolve(p, solver.Options{Steps: steps})
	}
	t, err := bestOf(runs...)
	if err != nil {
		return nil, err
	}
	return &RenumberResult{Natural: t[0], RCM: t[1], Multilevel: t[2], Random: t[3],
		RCMGainPct:    100 * (t[0].Best.Seconds() - t[1].Best.Seconds()) / t[0].Best.Seconds(),
		StrideNatural: strides[0], StrideRCM: strides[1], StrideRandom: strides[3]}, nil
}

// String renders the renumbering comparison.
func (r *RenumberResult) String() string {
	return fmt.Sprintf(
		"CM5: element orderings — natural %v, RCM %v,\n"+
			"  multilevel %v, scrambled %v\n"+
			"  RCM gain over natural order: %+.1f%% (paper: at most ~5%%, because point\n"+
			"  renumbering already removed most L2 misses)\n"+
			"  mean index stride: natural %.0f, RCM %.0f, scrambled %.0f\n",
		r.Natural, r.RCM, r.Multilevel, r.Random,
		r.RCMGainPct, r.StrideNatural, r.StrideRCM, r.StrideRandom)
}

// StationResult reproduces the section 4.4 station-location experiment.
// The Examined counts are the elements each locator examined over the
// whole station set (stations.Located.Examined).
type StationResult struct {
	NStations               int
	Nonlinear, Fast         Timing
	NonlinearExam, FastExam int
	NonlinearErr, SnapErr   float64 // worst residuals (m)
}

// StationLocation times the legacy nonlinear location of a station set
// against the fast nearest-grid-point mode and reports the elements
// each examined and the residuals.
func StationLocation(nex, nStations int) (*StationResult, error) {
	g, _, err := buildGlobe(earthmodel.EarthLike(), nex, 1, nil)
	if err != nil {
		return nil, err
	}
	net := stations.GlobalNetwork(nStations)
	nl, fast := make([]stations.Located, len(net)), make([]stations.Located, len(net))
	locate := func(locs []stations.Located, loc func(stations.Station) (stations.Located, error)) func() (time.Duration, error) {
		return wall(func() error {
			for i, st := range net {
				var err error
				if locs[i], err = loc(st); err != nil {
					return err
				}
			}
			return nil
		})
	}
	t, err := bestOf(
		locate(nl, func(st stations.Station) (stations.Located, error) { return stations.LocateNonlinear(g, st) }),
		locate(fast, func(st stations.Station) (stations.Located, error) { return stations.LocateFast(g, st, true) }))
	if err != nil {
		return nil, err
	}
	out := &StationResult{NStations: nStations, Nonlinear: t[0], Fast: t[1],
		NonlinearErr: stations.MaxLocationError(nl), SnapErr: stations.MaxLocationError(fast)}
	for i := range net {
		out.NonlinearExam += nl[i].Examined
		out.FastExam += fast[i].Examined
	}
	return out, nil
}

// String renders the station-location comparison.
func (r *StationResult) String() string {
	return fmt.Sprintf(
		"STALOC: %d stations — elements examined: legacy nonlinear %d, nearest-point %d (%.0fx fewer)\n"+
			"  wall: nonlinear %v, nearest-point %v (%.0fx faster)\n"+
			"  residuals: nonlinear %.2g m, snapped %.4g km (shrinks ~1/NEX; negligible\n"+
			"  at production resolutions, which is why 4.4 drops the interpolation)\n",
		r.NStations, r.NonlinearExam, r.FastExam, float64(r.NonlinearExam)/float64(r.FastExam),
		r.Nonlinear, r.Fast, r.Nonlinear.Best.Seconds()/r.Fast.Best.Seconds(), r.NonlinearErr, r.SnapErr/1e3)
}
