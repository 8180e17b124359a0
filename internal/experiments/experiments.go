// Package experiments implements the measured reproduction of every
// table and figure in the paper's evaluation (sections 4-6). Each
// experiment runs the live Go mesher/solver at laptop scale, fits the
// section 5 model forms, and extrapolates to the paper's scales so the
// shapes can be compared side by side (EXPERIMENTS.md records the
// outcomes). The entry points back cmd/paperfigs.
//
// Every solve goes through one path: a problem (a meshed globe with
// its equatorial source, or the KERNROOF/BATCH box) runs through solve.
// Every wall clock goes through one rule: bestOf runs the measurements
// round-robin for rounds rounds and keeps each one's fastest reading
// with its spread. Readings of the same runs share one sweep: FIG6,
// COMM% and OVERLAP render the rows of CommSweep. Solver-timing
// experiments run earthmodel.EarthLike, where PREM layering detail
// would only slow the runs down.
package experiments

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"syscall"
	"time"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/meshio"
	"specglobe/internal/perf"
	"specglobe/internal/perfmodel"
	"specglobe/internal/solver"
)

// problem is one solver input: the ranks' meshes and halo plans, the
// model and the sources.
type problem struct {
	name   string
	locals []*mesh.Local
	plans  []*mesh.HaloPlan
	model  earthmodel.Model
	srcs   []solver.Source
}

// solve runs p under opts: every experiment's solver run.
func solve(p problem, opts solver.Options) (*solver.Result, error) {
	return solver.Run(&solver.Simulation{Locals: p.locals, Plans: p.plans, Model: p.model, Sources: p.srcs, Opts: opts})
}

// buildGlobe meshes a globe of nex elements per chunk side on nproc
// slices per side, with doubling layers at the given radii (nil for a
// uniform mesh), and returns it with its problem (globeProblem).
func buildGlobe(model earthmodel.Model, nex, nproc int, doublings []float64) (*meshfem.Globe, problem, error) {
	g, err := meshfem.Build(meshfem.Config{NexXi: nex, NProcXi: nproc, Model: model, Doublings: doublings})
	if err != nil {
		return nil, problem{}, err
	}
	p, err := globeProblem(g)
	return g, p, err
}

// globeProblem is g on its own model with a moment-tensor source near
// the equator.
func globeProblem(g *meshfem.Globe) (problem, error) {
	loc, err := g.LocateLatLonDepth(0, 0, 120e3)
	if err != nil {
		return problem{}, err
	}
	const m0 = 1e20
	return problem{
		name: "globe", locals: g.Locals, plans: g.Plans, model: g.Cfg.Model,
		srcs: []solver.Source{{
			Rank: loc.Rank, Kind: loc.Kind, Elem: loc.Elem, Ref: loc.Ref,
			MomentTensor: [3][3]float64{{m0, 0, 0}, {0, m0, 0}, {0, 0, m0}},
			STF:          solver.GaussianSTF(10, 25),
		}},
	}, nil
}

// rounds is how many times bestOf runs each measurement.
const rounds = 3

// Timing is a measurement's fastest reading over Runs runs. Spread is
// the slowest reading over the fastest, minus one.
type Timing struct {
	Best   time.Duration
	Runs   int
	Spread float64
}

// String renders the reading with its repetitions and spread.
func (t Timing) String() string {
	best := t.Best
	if best >= time.Millisecond {
		best = best.Round(10 * time.Microsecond)
	}
	return fmt.Sprintf("%v (best of %d, spread %.0f%%)", best, t.Runs, 100*t.Spread)
}

// bestOf runs the measurements round-robin, rounds times each, so that
// a slow stretch of a shared host and the first run's cache and page
// faults fall on every measurement alike. Each measurement returns its
// own reading (wall or CPU time of what it ran).
func bestOf(ms ...func() (time.Duration, error)) ([]Timing, error) {
	fastest := slices.Repeat([]time.Duration{math.MaxInt64}, len(ms))
	slowest := make([]time.Duration, len(ms))
	for range rounds {
		for i, m := range ms {
			d, err := m()
			if err != nil {
				return nil, err
			}
			fastest[i], slowest[i] = min(fastest[i], d), max(slowest[i], d)
		}
	}
	out := make([]Timing, len(ms))
	for i := range out {
		out[i] = Timing{Best: fastest[i], Runs: rounds, Spread: float64(slowest[i])/float64(max(fastest[i], 1)) - 1}
	}
	return out, nil
}

// wall measures the wall time of f.
func wall(f func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t0 := time.Now()
		err := f()
		return time.Since(t0), err
	}
}

// wallSolve measures the wall time of solving p under opts.
func wallSolve(p problem, opts solver.Options) func() (time.Duration, error) {
	return wall(func() error {
		_, err := solve(p, opts)
		return err
	})
}

// cpu measures the CPU time, user plus system, the process spends in f.
func cpu(f func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		var r0, r1 syscall.Rusage
		err := cmp.Or(syscall.Getrusage(syscall.RUSAGE_SELF, &r0), f(), syscall.Getrusage(syscall.RUSAGE_SELF, &r1))
		return time.Duration(r1.Utime.Nano() + r1.Stime.Nano() - r0.Utime.Nano() - r0.Stime.Nano()), err
	}
}

// meanOuterFraction is the fraction of elements classified outer (the
// work that cannot hide communication), averaged over ranks.
func meanOuterFraction(g *meshfem.Globe) float64 {
	f := 0.0
	for rank, l := range g.Locals {
		f += mesh.BuildOverlap(l, g.Plans[rank]).OuterFraction()
	}
	return f / float64(len(g.Locals))
}

// --- FIG5: disk space vs resolution --------------------------------------

// Fig5Row is one measured or predicted point of figure 5.
type Fig5Row struct {
	Res       int
	PeriodSec float64
	Measured  int64   // bytes actually written (0 for predictions)
	Model     float64 // fitted model bytes
	Files     int
}

// Fig5Result reproduces figure 5.
type Fig5Result struct {
	Rows []Fig5Row
	Fit  *perfmodel.PowerModel
	// Predictions at the paper's anchor periods.
	At2s, At1s float64
}

// Fig5 writes real legacy databases at the given resolutions, fits the
// power-law disk model and extrapolates to the 2 s and 1 s resolutions
// (the paper's "over 14 TB" and "over 108 TB").
func Fig5(nexList []int) (*Fig5Result, error) {
	model := earthmodel.NewPREM()
	var samples []perfmodel.Sample
	res := &Fig5Result{}
	for _, nex := range nexList {
		g, _, err := buildGlobe(model, nex, 1, nil)
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp("", "specglobe-fig5-")
		if err != nil {
			return nil, err
		}
		st, err := meshio.WriteAllRanks(dir, g.Locals, g.Plans)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		samples = append(samples, perfmodel.Sample{X: float64(nex), Y: float64(st.Bytes)})
		res.Rows = append(res.Rows, Fig5Row{
			Res:       nex,
			PeriodSec: perfmodel.ResolutionToPeriod(float64(nex)),
			Measured:  st.Bytes,
			Files:     st.Files,
		})
	}
	fit, err := perfmodel.FitPowerModel(samples)
	if err != nil {
		return nil, err
	}
	res.Fit = fit
	for i := range res.Rows {
		res.Rows[i].Model = fit.At(float64(res.Rows[i].Res))
	}
	res.At2s, res.At1s = fit.AtPeriod(2), fit.AtPeriod(1)
	for _, anchor := range []float64{2, 1} {
		r := perfmodel.PeriodToResolution(anchor)
		res.Rows = append(res.Rows, Fig5Row{Res: int(r), PeriodSec: anchor, Model: fit.At(r)})
	}
	return res, nil
}

// String renders the figure 5 table.
func (r *Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG5: mesher->solver disk space vs resolution (fit: %.3g * res^%.2f, R2=%.4f)\n",
		r.Fit.Fit.A, r.Fit.Fit.B, r.Fit.R2)
	fmt.Fprintf(&b, "  %6s %9s %14s %14s %7s\n", "res", "period", "measured", "model", "files")
	for _, row := range r.Rows {
		meas := "-"
		if row.Measured > 0 {
			meas = perfmodel.HumanBytes(float64(row.Measured))
		}
		fmt.Fprintf(&b, "  %6d %8.2fs %14s %14s %7d\n",
			row.Res, row.PeriodSec, meas, perfmodel.HumanBytes(row.Model), row.Files)
	}
	fmt.Fprintf(&b, "  paper: >14 TB at 2 s, >108 TB at 1 s; this build: %s and %s\n",
		perfmodel.HumanBytes(r.At2s), perfmodel.HumanBytes(r.At1s))
	return b.String()
}

// --- FIG6, COMM%, OVERLAP: one communication sweep ------------------------

// CommRow is one run of the communication sweep. FIG6 reads the total
// virtual comm time, COMM% the comm fraction and OVERLAP the exposed,
// hidden and blocking columns: in the paper too they are readings of
// the same IPM-profiled runs.
type CommRow struct {
	P   int
	Res int
	// TotalComm is the full virtual network time summed over ranks
	// (seconds), exposed plus hidden: what the two-term model describes,
	// and all of it exposed under a blocking schedule.
	TotalComm float64
	// Exposed and Hidden split TotalComm under the overlapped schedule.
	Exposed, Hidden float64
	// Fraction is the comm fraction of the solver main loop;
	// BlockingFrac the one a blocking schedule reports for the same run
	// (BlockingCommFraction).
	Fraction, BlockingFrac float64
	// OuterFrac is the mean fraction of elements classified outer.
	OuterFrac float64
}

// CommSweep runs the undoubled EarthLike globe at every (nex, nproc)
// with nproc dividing nex, once each, and returns one row per run.
func CommSweep(nexList, nprocList []int, steps int) ([]CommRow, error) {
	model := earthmodel.EarthLike()
	var rows []CommRow
	for _, nex := range nexList {
		for _, nproc := range nprocList {
			if nex%nproc != 0 {
				continue
			}
			g, p, err := buildGlobe(model, nex, nproc, nil)
			if err != nil {
				return nil, err
			}
			res, err := solve(p, solver.Options{Steps: steps})
			if err != nil {
				return nil, err
			}
			rows = append(rows, CommRow{
				P: g.Decomp.NumRanks(), Res: nex,
				TotalComm:    res.MPI.VirtualCommTime.Seconds(),
				Exposed:      res.MPI.Exposed().Seconds(),
				Hidden:       res.MPI.HiddenCommTime.Seconds(),
				Fraction:     res.Perf.CommFraction,
				BlockingFrac: BlockingCommFraction(res),
				OuterFrac:    meanOuterFraction(g),
			})
		}
	}
	return rows, nil
}

// Fig6Row is one sweep run next to the fitted model's value.
type Fig6Row struct {
	CommRow
	ModelComm float64
}

// Fig6Machine is the fitted model rescaled to one machine of the
// catalog (bandwidth scales the halo-bytes term, latency the message
// term) and evaluated at the paper's two anchor scales.
type Fig6Machine struct {
	Name             string
	LatencyUS        float64
	LinkBWGBs        float64
	Pred12K, Pred62K float64 // seconds per core
	// PctOfPeak is the roofline-sustained compute fraction the machine
	// model predicts for the solver (min of the efficiency and bandwidth
	// ceilings over the raw peak).
	PctOfPeak float64
}

// Fig6Result reproduces figure 6.
type Fig6Result struct {
	Rows []Fig6Row
	Fit  *perfmodel.CommModel
	// Paper's model predictions for comparison.
	Pred12K, Pred62K float64 // seconds per core at the paper's scales
	// PerMachine extrapolates the fit to each catalog interconnect.
	PerMachine []Fig6Machine
}

// Fig6 fits the two-term communication model to the total MPI time of
// the sweep's runs (the IPM measurement). It fits the total virtual
// network time: the model describes the traffic, which the overlap
// schedule hides but does not remove.
func Fig6(rows []CommRow) (*Fig6Result, error) {
	out := &Fig6Result{}
	samples := make([]perfmodel.CommSample, len(rows))
	for i, row := range rows {
		samples[i] = perfmodel.CommSample{P: row.P, Res: float64(row.Res), TotalComm: row.TotalComm}
	}
	fit, err := perfmodel.FitCommModel(samples)
	if err != nil {
		return nil, err
	}
	out.Fit = fit
	for _, row := range rows {
		out.Rows = append(out.Rows, Fig6Row{CommRow: row, ModelComm: fit.TotalComm(row.P, float64(row.Res))})
	}
	out.Pred12K, out.Pred62K = fit.PerCoreComm(12150, 1440), fit.PerCoreComm(62000, 4848)
	for _, m := range perfmodel.Catalog() {
		mf := fit.ForMachine(m)
		out.PerMachine = append(out.PerMachine, Fig6Machine{
			Name: m.Name, LatencyUS: m.LatencyUS, LinkBWGBs: m.LinkBWGBs,
			Pred12K:   mf.PerCoreComm(12150, 1440),
			Pred62K:   mf.PerCoreComm(62000, 4848),
			PctOfPeak: 100 * m.SustainedGflopsPerCore() / m.PeakGflopsPerCore,
		})
	}
	return out, nil
}

// String renders the figure 6 table.
func (r *Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG6: total communication time (all ranks) vs core count (fit c1=%.3g c2=%.3g)\n",
		r.Fit.C1, r.Fit.C2)
	fmt.Fprintf(&b, "  %6s %6s %12s %12s\n", "P", "res", "measured(s)", "model(s)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %6d %6d %12.4f %12.4f\n", row.P, row.Res, row.TotalComm, row.ModelComm)
	}
	fmt.Fprintf(&b, "  extrapolated per-core comm: %.3g s at 12K cores/res1440, %.3g s at 62K/res4848\n",
		r.Pred12K, r.Pred62K)
	fmt.Fprintf(&b, "  paper's model: 599 s/core (3.2%% of runtime) and 28K s/core (4.7%%)\n")
	if len(r.PerMachine) > 0 {
		fmt.Fprintf(&b, "  per machine (latency scales the P term, bandwidth the res^2*sqrt(P) term):\n")
		for _, m := range r.PerMachine {
			fmt.Fprintf(&b, "    %-9s %4.1fus %5.2fGB/s  %.3g s/core at 12K, %.3g s/core at 62K, sustains %.0f%% of peak\n",
				m.Name, m.LatencyUS, m.LinkBWGBs, m.Pred12K, m.Pred62K, m.PctOfPeak)
		}
	}
	return b.String()
}

// --- FIG7: total runtime vs resolution -----------------------------------

// Fig7Row is one resolution. Visits, steps times Elements, counts the
// element visits performed and skipped (the full-domain work of the
// paper's runtime law); Normalized is Visits over the first row's.
// Flops and Bytes count the performed visits alone (perf.Report).
// CoreSec is the solve's time summed over ranks.
type Fig7Row struct {
	Res          int
	CoreSec      Timing
	Normalized   float64
	Elements     int
	Visits       int64
	Flops, Bytes int64
}

// Fig7Result reproduces figure 7.
type Fig7Result struct {
	Rows []Fig7Row
	// Fit is the power law of Visits against resolution, so it repeats
	// exactly from run to run.
	Fit *perfmodel.PowerModel
	// PaperSeries is the model evaluated at the paper's resolutions
	// {96,144,288,320,512,640}, normalized to the first.
	PaperSeries []float64
}

// Fig7 runs a fixed number of solver steps at several resolutions and
// fits their total work against resolution through the element visits.
func Fig7(nexList []int, steps int) (*Fig7Result, error) {
	model := earthmodel.EarthLike()
	out := &Fig7Result{}
	var samples []perfmodel.Sample
	for _, nex := range nexList {
		g, p, err := buildGlobe(model, nex, 1, nil)
		if err != nil {
			return nil, err
		}
		row := Fig7Row{Res: nex, Elements: g.TotalElements(), Visits: int64(steps) * int64(g.TotalElements())}
		t, err := bestOf(func() (time.Duration, error) {
			res, err := solve(p, solver.Options{Steps: steps})
			if err != nil {
				return 0, err
			}
			row.Flops, row.Bytes = res.Perf.TotalFlops, res.Perf.TotalBytes
			return res.Perf.TotalTime, nil
		})
		if err != nil {
			return nil, err
		}
		row.CoreSec = t[0]
		samples = append(samples, perfmodel.Sample{X: float64(nex), Y: float64(row.Visits)})
		out.Rows = append(out.Rows, row)
	}
	fit, err := perfmodel.FitPowerModel(samples)
	if err != nil {
		return nil, err
	}
	out.Fit = fit
	for i := range out.Rows {
		out.Rows[i].Normalized = float64(out.Rows[i].Visits) / float64(out.Rows[0].Visits)
	}
	out.PaperSeries = fit.NormalizedSeries([]float64{96, 144, 288, 320, 512, 640})
	return out, nil
}

// String renders the figure 7 table.
func (r *Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG7: total work vs resolution (element-visit fit exponent %.2f, R2=%.4f)\n",
		r.Fit.Fit.B, r.Fit.R2)
	fmt.Fprintf(&b, "  %6s %9s %10s %12s %12s  %s\n", "res", "elements", "visits", "flops", "normalized", "core time")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %6d %9d %10d %12d %12.2f  %v\n",
			row.Res, row.Elements, row.Visits, row.Flops, row.Normalized, row.CoreSec)
	}
	fmt.Fprintf(&b, "  model at paper resolutions 96..640 (normalized): %s\n", joinf("%.0f", r.PaperSeries, 1))
	fmt.Fprintf(&b, "  paper figure 7 spans ~1..300 over the same resolutions\n")
	return b.String()
}

// --- COMM%: communication fraction ---------------------------------------

// CommFractionTable renders the section 5 measurement over a CommSweep:
// communication time in the solver main loop as a fraction of total
// execution time.
type CommFractionTable []CommRow

// String renders the comm-fraction table.
func (t CommFractionTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "COMM%%: communication fraction of solver main loop (paper: 1.9%%-4.2%%, avg 3.2%%)\n")
	fmt.Fprintf(&b, "  %6s %6s %10s\n", "P", "res", "comm frac")
	sum := 0.0
	for _, row := range t {
		fmt.Fprintf(&b, "  %6d %6d %9.2f%%\n", row.P, row.Res, 100*row.Fraction)
		sum += row.Fraction
	}
	if len(t) > 0 {
		fmt.Fprintf(&b, "  average: %.2f%%\n", 100*sum/float64(len(t)))
	}
	return b.String()
}

// --- MEM37 + TAB6: memory model and the production-run table -------------

// MemoryResult reproduces the section 4 memory arithmetic.
type MemoryResult struct {
	Fit *perfmodel.PowerModel
	// Calibrated is the same power law rescaled to the paper's 37 TB
	// anchor (SPECFEM's packed storage); it drives the Table 6 periods.
	Calibrated *perfmodel.PowerModel
	// Bytes at the 2 s and 1 s resolutions (measured constant).
	At2s, At1s float64
	// Cores needed at 1.85 GB/core for the 2 s mesh, calibrated
	// constant (one application; the paper doubles it for
	// mesher+solver).
	CoresAt2s float64
	Table6    []perfmodel.Table6Row
}

// Memory fits total mesh bytes against resolution using PREM meshes and
// reproduces the "37 TB -> ~62K cores at 1.85 GB/core" arithmetic plus
// the section 6 table's model periods.
func Memory(nexList []int) (*MemoryResult, error) {
	model := earthmodel.NewPREM()
	var samples []perfmodel.Sample
	for _, nex := range nexList {
		g, _, err := buildGlobe(model, nex, 1, nil)
		if err != nil {
			return nil, err
		}
		var bytes int64
		for _, l := range g.Locals {
			bytes += meshio.MeshBytes(l)
		}
		samples = append(samples, perfmodel.Sample{X: float64(nex), Y: float64(bytes)})
	}
	fit, err := perfmodel.FitPowerModel(samples)
	if err != nil {
		return nil, err
	}
	out := &MemoryResult{Fit: fit, Calibrated: fit.CalibratedToPaper()}
	out.At2s = fit.At(perfmodel.PeriodToResolution(2))
	out.At1s = fit.At(perfmodel.PeriodToResolution(1))
	out.CoresAt2s = out.Calibrated.CoresNeeded(perfmodel.PeriodToResolution(2), 1.85)
	out.Table6 = perfmodel.Table6(out.Calibrated)
	return out, nil
}

// String renders the memory summary and the reproduced table.
func (r *MemoryResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MEM37: mesh memory model (fit %.3g * res^%.2f, R2=%.4f)\n",
		r.Fit.Fit.A, r.Fit.Fit.B, r.Fit.R2)
	fmt.Fprintf(&b, "  at 2 s period: %s measured constant (paper: ~37 TB per application;\n", perfmodel.HumanBytes(r.At2s))
	fmt.Fprintf(&b, "    the Go mesh stores float64 coordinates and per-point materials, hence the larger constant)\n")
	fmt.Fprintf(&b, "  at 1 s period: %s measured constant\n", perfmodel.HumanBytes(r.At1s))
	fmt.Fprintf(&b, "  cores at 1.85 GB/core for the 2 s mesh (paper-calibrated): %.0f per application\n", r.CoresAt2s)
	fmt.Fprintf(&b, "    (x2 applications plus system overhead is the paper's ~62K-core estimate)\n")
	fmt.Fprintf(&b, "TAB6: section 6 production runs, roofline model vs paper\n")
	b.WriteString(perfmodel.FormatTable6(r.Table6))
	return b.String()
}

// --- ATT1.8: attenuation cost factor --------------------------------------

// AttenuationResult reproduces the section 6 attenuation experiment.
// The readings are process CPU time, which a shared host stretches less
// than the wall time of a run of tens of milliseconds. Flops and Bytes
// count the solid force phase, off and on: the memory-variable work.
type AttenuationResult struct {
	Off, On       Timing
	Factor        float64
	TflopsDropPct float64
	Flops, Bytes  [2]int64
}

// Attenuation times identical runs with attenuation off and on. The
// flop-rate drop divides each side's counted flops by its CPU reading.
func Attenuation(nex, steps int) (*AttenuationResult, error) {
	_, p, err := buildGlobe(earthmodel.EarthLike(), nex, 1, nil)
	if err != nil {
		return nil, err
	}
	out, solid := &AttenuationResult{}, perf.PhaseForceSolid.String()
	var total [2]int64 // off, on
	run := func(att int) func() (time.Duration, error) {
		return cpu(func() error {
			res, err := solve(p, solver.Options{Steps: steps, Attenuation: att == 1,
				AttenuationBand: [2]float64{0.001, 0.05}})
			if err == nil {
				total[att], out.Flops[att], out.Bytes[att] = res.Perf.TotalFlops, res.Perf.PhaseFlops[solid], res.Perf.PhaseBytes[solid]
			}
			return err
		})
	}
	t, err := bestOf(run(0), run(1))
	if err != nil {
		return nil, err
	}
	out.Off, out.On, out.Factor = t[0], t[1], t[1].Best.Seconds()/t[0].Best.Seconds()
	out.TflopsDropPct = 100 * (1 - float64(total[1])/float64(total[0])/out.Factor)
	return out, nil
}

// String renders the attenuation comparison.
func (r *AttenuationResult) String() string {
	return fmt.Sprintf(
		"ATT1.8: attenuation off %v, on %v (CPU) -> factor %.2fx\n"+
			"  solid force flops %d -> %d, bytes %d -> %d\n"+
			"  (paper: 1.8x, with an almost imperceptible Tflops drop; measured flop-rate drop %.1f%%)\n",
		r.Off, r.On, r.Factor, r.Flops[0], r.Flops[1], r.Bytes[0], r.Bytes[1], r.TflopsDropPct)
}

// --- MESH2X: two-pass vs merged mesher ------------------------------------

// MesherResult reproduces section 4.4 item 1. Passes holds each mode's
// geometry passes (Globe.BuildPasses): the count behind the factor.
type MesherResult struct {
	SinglePass, TwoPass Timing
	Passes              [2]int
	Factor              float64
}

// Mesher times the merged single-pass build against the legacy
// two-pass behavior.
func Mesher(nex int) (*MesherResult, error) {
	model := earthmodel.NewPREM()
	var passes [2]int
	build := func(mode int) func() (time.Duration, error) {
		return wall(func() error {
			g, err := meshfem.Build(meshfem.Config{NexXi: nex, NProcXi: 1, Model: model, TwoPassMaterials: mode == 1})
			if err == nil {
				passes[mode] = g.BuildPasses
			}
			return err
		})
	}
	t, err := bestOf(build(0), build(1))
	if err != nil {
		return nil, err
	}
	return &MesherResult{SinglePass: t[0], TwoPass: t[1], Passes: passes,
		Factor: t[1].Best.Seconds() / t[0].Best.Seconds()}, nil
}

// String renders the mesher comparison.
func (r *MesherResult) String() string {
	return fmt.Sprintf(
		"MESH2X: merged mesher %v, %d pass; legacy %v, %d passes -> %.2fx\n"+
			"  (paper: the legacy mesher ran twice, a factor of two)\n",
		r.SinglePass, r.Passes[0], r.TwoPass, r.Passes[1], r.Factor)
}

// --- IOMERGE: I/O mode comparison ------------------------------------------

// IOResult reproduces the section 4.1 comparison: the legacy database's
// write and read-back against the merged handoff, with the files and
// bytes behind the times.
type IOResult struct {
	LegacyFiles int
	LegacyBytes int64
	Legacy      Timing
	MergedFiles int
	Merged      Timing
	FilesAt62K  int64
}

// IOModes writes/reads the legacy database and compares against the
// merged handoff; extrapolates the file count to 62K cores.
func IOModes(nex int) (*IOResult, error) {
	g, _, err := buildGlobe(earthmodel.EarthLike(), nex, 1, nil)
	if err != nil {
		return nil, err
	}
	out := &IOResult{FilesAt62K: int64(meshio.LegacyFilesPerCore) * 62976}
	dir, err := os.MkdirTemp("", "specglobe-io-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t, err := bestOf(wall(func() error {
		st, err := meshio.WriteAllRanks(dir, g.Locals, g.Plans)
		if err != nil {
			return err
		}
		out.LegacyFiles, out.LegacyBytes = st.Files, st.Bytes
		_, _, err = meshio.ReadAllRanks(dir, len(g.Locals))
		return err
	}), wall(func() error {
		out.MergedFiles = meshio.MergedHandoff(g.Locals).Files
		return nil
	}))
	if err != nil {
		return nil, err
	}
	out.Legacy, out.Merged = t[0], t[1]
	return out, nil
}

// String renders the I/O comparison.
func (r *IOResult) String() string {
	return fmt.Sprintf(
		"IOMERGE: legacy database %d files / %s in %v;\n"+
			"  merged handoff %d files in %v\n"+
			"  at 62,976 cores the legacy mode means %.2fM files (paper: over 3.2 million)\n",
		r.LegacyFiles, perfmodel.HumanBytes(float64(r.LegacyBytes)), r.Legacy,
		r.MergedFiles, r.Merged, float64(r.FilesAt62K)/1e6)
}

// --- LOADBAL: mesh load balance --------------------------------------------

// LoadBalance reports the element-count balance of a decomposition (the
// "excellent load balancing" of the improved mesh design).
func LoadBalance(nex, nproc int) (mesh.LoadStats, error) {
	g, _, err := buildGlobe(earthmodel.EarthLike(), nex, nproc, nil)
	if err != nil {
		return mesh.LoadStats{}, err
	}
	return mesh.ComputeLoadStats(g.Locals), nil
}
