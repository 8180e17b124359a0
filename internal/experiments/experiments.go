// Package experiments implements the measured reproduction of every
// table and figure in the paper's evaluation (sections 4-6). Each
// experiment runs the live Go mesher/solver at laptop scale, fits the
// section 5 model forms, and extrapolates to the paper's scales so the
// shapes can be compared side by side (EXPERIMENTS.md records the
// outcomes). The entry points back cmd/paperfigs.
//
// Every globe run goes through one path: buildGlobe meshes it,
// solveCentral places the equatorial source and runs the solver on the
// globe's own model, and fastestRun keeps the best of two runs where a
// sweep ranks wall-clock rates. Readings of the same runs share one
// sweep: FIG6, COMM% and OVERLAP render the rows of CommSweep.
// Solver-timing experiments run earthmodel.EarthLike, where PREM
// layering detail would only slow the runs down.
package experiments

import (
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/meshio"
	"specglobe/internal/perfmodel"
	"specglobe/internal/solver"
)

// buildGlobe meshes a globe of nex elements per chunk side on nproc
// slices per side, with doubling layers at the given radii (nil for a
// uniform mesh).
func buildGlobe(model earthmodel.Model, nex, nproc int, doublings []float64) (*meshfem.Globe, error) {
	return meshfem.Build(meshfem.Config{NexXi: nex, NProcXi: nproc, Model: model, Doublings: doublings})
}

// centralSource returns a moment-tensor source near the equator.
func centralSource(g *meshfem.Globe) (solver.Source, error) {
	loc, err := g.LocateLatLonDepth(0, 0, 120e3)
	if err != nil {
		return solver.Source{}, err
	}
	const m0 = 1e20
	return solver.Source{
		Rank: loc.Rank, Kind: loc.Kind, Elem: loc.Elem, Ref: loc.Ref,
		MomentTensor: [3][3]float64{{m0, 0, 0}, {0, m0, 0}, {0, 0, m0}},
		STF:          solver.GaussianSTF(10, 25),
	}, nil
}

// solveCentral runs the globe on its own model with the central source.
func solveCentral(g *meshfem.Globe, opts solver.Options) (*solver.Result, error) {
	src, err := centralSource(g)
	if err != nil {
		return nil, err
	}
	return solver.Run(&solver.Simulation{
		Locals: g.Locals, Plans: g.Plans, Model: g.Cfg.Model,
		Sources: []solver.Source{src},
		Opts:    opts,
	})
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
	Fit  *perfmodel.DiskModel
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
		g, err := buildGlobe(model, nex, 1, nil)
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
	fit, err := perfmodel.FitDiskModel(samples)
	if err != nil {
		return nil, err
	}
	res.Fit = fit
	for i := range res.Rows {
		res.Rows[i].Model = fit.BytesAt(float64(res.Rows[i].Res))
	}
	res.At2s = fit.BytesAtPeriod(2)
	res.At1s = fit.BytesAtPeriod(1)
	for _, anchor := range []float64{2, 1} {
		r := perfmodel.PeriodToResolution(anchor)
		res.Rows = append(res.Rows, Fig5Row{
			Res:       int(r),
			PeriodSec: anchor,
			Model:     fit.BytesAt(r),
		})
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
			g, err := buildGlobe(model, nex, nproc, nil)
			if err != nil {
				return nil, err
			}
			res, err := solveCentral(g, solver.Options{Steps: steps})
			if err != nil {
				return nil, err
			}
			rows = append(rows, CommRow{
				P: g.Decomp.NumRanks(), Res: nex,
				TotalComm:    res.Perf.TotalCommTime().Seconds(),
				Exposed:      res.MPI.Exposed().Seconds(),
				Hidden:       res.MPI.HiddenCommTime.Seconds(),
				Fraction:     res.Perf.CommFraction,
				BlockingFrac: BlockingCommFraction(res.Perf),
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
	out.Pred12K = fit.PerCoreComm(12150, 1440)
	out.Pred62K = fit.PerCoreComm(62000, 4848)
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

// Fig7Row is one runtime measurement.
type Fig7Row struct {
	Res        int
	CoreSec    float64
	Normalized float64
}

// Fig7Result reproduces figure 7.
type Fig7Result struct {
	Rows []Fig7Row
	Fit  *perfmodel.RuntimeModel
	// PaperSeries is the model evaluated at the paper's resolutions
	// {96,144,288,320,512,640}, normalized to the first.
	PaperSeries []float64
}

// Fig7 runs a fixed number of solver steps at several resolutions and
// fits total core-seconds against resolution.
func Fig7(nexList []int, steps int) (*Fig7Result, error) {
	model := earthmodel.EarthLike()
	out := &Fig7Result{}
	var samples []perfmodel.Sample
	for _, nex := range nexList {
		g, err := buildGlobe(model, nex, 1, nil)
		if err != nil {
			return nil, err
		}
		res, err := solveCentral(g, solver.Options{Steps: steps})
		if err != nil {
			return nil, err
		}
		total := res.Perf.TotalTime.Seconds()
		samples = append(samples, perfmodel.Sample{X: float64(nex), Y: total})
		out.Rows = append(out.Rows, Fig7Row{Res: nex, CoreSec: total})
	}
	fit, err := perfmodel.FitRuntimeModel(samples)
	if err != nil {
		return nil, err
	}
	out.Fit = fit
	base := out.Rows[0].CoreSec
	for i := range out.Rows {
		out.Rows[i].Normalized = out.Rows[i].CoreSec / base
	}
	out.PaperSeries = fit.NormalizedSeries([]float64{96, 144, 288, 320, 512, 640})
	return out, nil
}

// String renders the figure 7 table.
func (r *Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG7: total core-seconds vs resolution (fit exponent %.2f, R2=%.4f)\n",
		r.Fit.Fit.B, r.Fit.R2)
	fmt.Fprintf(&b, "  %6s %12s %12s\n", "res", "core-sec", "normalized")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %6d %12.4f %12.2f\n", row.Res, row.CoreSec, row.Normalized)
	}
	fmt.Fprintf(&b, "  model at paper resolutions 96..640 (normalized): ")
	for i, v := range r.PaperSeries {
		if i > 0 {
			fmt.Fprintf(&b, ", ")
		}
		fmt.Fprintf(&b, "%.0f", v)
	}
	fmt.Fprintf(&b, "\n  paper figure 7 spans ~1..300 over the same resolutions\n")
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
	Fit *perfmodel.MemoryModel
	// Calibrated is the same power law rescaled to the paper's 37 TB
	// anchor (SPECFEM's packed storage); it drives the Table 6 periods.
	Calibrated *perfmodel.MemoryModel
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
		g, err := buildGlobe(model, nex, 1, nil)
		if err != nil {
			return nil, err
		}
		var bytes int64
		for _, l := range g.Locals {
			bytes += meshio.MeshBytes(l)
		}
		samples = append(samples, perfmodel.Sample{X: float64(nex), Y: float64(bytes)})
	}
	fit, err := perfmodel.FitMemoryModel(samples)
	if err != nil {
		return nil, err
	}
	out := &MemoryResult{Fit: fit, Calibrated: fit.CalibratedToPaper()}
	out.At2s = fit.BytesAt(perfmodel.PeriodToResolution(2))
	out.At1s = fit.BytesAt(perfmodel.PeriodToResolution(1))
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
// The elapsed times are process CPU time: the paper's factor is wall
// time on dedicated cores, and on a shared host CPU time is what stays
// comparable — wall time of a run of tens of milliseconds is stretched
// at will by whatever else is scheduled.
type AttenuationResult struct {
	ElapsedOff, ElapsedOn time.Duration
	Factor                float64
	TflopsDropPct         float64
}

// processCPU returns the user plus system CPU time this process has
// consumed.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// Attenuation times identical runs with attenuation off and on.
func Attenuation(nex, steps int) (*AttenuationResult, error) {
	g, err := buildGlobe(earthmodel.EarthLike(), nex, 1, nil)
	if err != nil {
		return nil, err
	}
	run := func(att bool) (time.Duration, float64, error) {
		c0, err := processCPU()
		if err != nil {
			return 0, 0, err
		}
		res, err := solveCentral(g, solver.Options{Steps: steps, Attenuation: att,
			AttenuationBand: [2]float64{0.001, 0.05}})
		if err != nil {
			return 0, 0, err
		}
		c1, err := processCPU()
		if err != nil {
			return 0, 0, err
		}
		return c1 - c0, res.Perf.SustainedFlops, nil
	}
	// Each side keeps the cheapest of three alternating runs (the
	// collector's work for one run's garbage can land in the next).
	out := &AttenuationResult{}
	var offFlops, onFlops float64
	for rep := 0; rep < 3; rep++ {
		off, fOff, err := run(false)
		if err != nil {
			return nil, err
		}
		on, fOn, err := run(true)
		if err != nil {
			return nil, err
		}
		if rep == 0 || off < out.ElapsedOff {
			out.ElapsedOff, offFlops = off, fOff
		}
		if rep == 0 || on < out.ElapsedOn {
			out.ElapsedOn, onFlops = on, fOn
		}
	}
	out.Factor = out.ElapsedOn.Seconds() / out.ElapsedOff.Seconds()
	if offFlops > 0 {
		out.TflopsDropPct = 100 * (offFlops - onFlops) / offFlops
	}
	return out, nil
}

// String renders the attenuation comparison.
func (r *AttenuationResult) String() string {
	return fmt.Sprintf(
		"ATT1.8: attenuation off %v, on %v -> factor %.2fx (paper: 1.8x, with an almost imperceptible Tflops drop; measured flop-rate drop %.1f%%)\n",
		r.ElapsedOff.Round(time.Millisecond), r.ElapsedOn.Round(time.Millisecond),
		r.Factor, r.TflopsDropPct)
}

// --- MESH2X: two-pass vs merged mesher ------------------------------------

// MesherResult reproduces section 4.4 item 1.
type MesherResult struct {
	SinglePass, TwoPass time.Duration
	Factor              float64
}

// Mesher times the merged single-pass build against the legacy two-pass
// behavior: the best of three builds per mode, the modes alternating, so
// one build slowed by a busy host does not decide the factor.
func Mesher(nex int) (*MesherResult, error) {
	model := earthmodel.NewPREM()
	var best [2]time.Duration // single pass, two pass
	for range 3 {
		for mode, twoPass := range []bool{false, true} {
			t0 := time.Now()
			if _, err := meshfem.Build(meshfem.Config{NexXi: nex, NProcXi: 1, Model: model, TwoPassMaterials: twoPass}); err != nil {
				return nil, err
			}
			if d := time.Since(t0); best[mode] == 0 || d < best[mode] {
				best[mode] = d
			}
		}
	}
	return &MesherResult{SinglePass: best[0], TwoPass: best[1],
		Factor: best[1].Seconds() / best[0].Seconds()}, nil
}

// String renders the mesher comparison.
func (r *MesherResult) String() string {
	return fmt.Sprintf(
		"MESH2X: merged mesher %v, legacy two-pass %v -> %.2fx (paper: the legacy mesher ran twice, a factor of two)\n",
		r.SinglePass.Round(time.Millisecond), r.TwoPass.Round(time.Millisecond), r.Factor)
}

// --- IOMERGE: I/O mode comparison ------------------------------------------

// IOResult reproduces the section 4.1 comparison.
type IOResult struct {
	LegacyFiles int
	LegacyBytes int64
	LegacyTime  time.Duration
	MergedTime  time.Duration
	FilesAt62K  int64
	Ranks       int
}

// IOModes writes/reads the legacy database and compares against the
// merged handoff; extrapolates the file count to 62K cores.
func IOModes(nex int) (*IOResult, error) {
	g, err := buildGlobe(earthmodel.EarthLike(), nex, 1, nil)
	if err != nil {
		return nil, err
	}
	out := &IOResult{Ranks: len(g.Locals)}
	dir, err := os.MkdirTemp("", "specglobe-io-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	st, err := meshio.WriteAllRanks(dir, g.Locals, g.Plans)
	if err != nil {
		return nil, err
	}
	if _, _, err := meshio.ReadAllRanks(dir, len(g.Locals)); err != nil {
		return nil, err
	}
	out.LegacyTime = time.Since(t0)
	out.LegacyFiles = st.Files
	out.LegacyBytes = st.Bytes
	t1 := time.Now()
	_ = meshio.MergedHandoff(g.Locals)
	out.MergedTime = time.Since(t1)
	out.FilesAt62K = int64(meshio.LegacyFilesPerCore) * 62976
	return out, nil
}

// String renders the I/O comparison.
func (r *IOResult) String() string {
	return fmt.Sprintf(
		"IOMERGE: legacy database %d files / %s in %v; merged handoff 0 files in %v\n"+
			"  at 62,976 cores the legacy mode means %.2fM files (paper: over 3.2 million)\n",
		r.LegacyFiles, perfmodel.HumanBytes(float64(r.LegacyBytes)),
		r.LegacyTime.Round(time.Millisecond), r.MergedTime.Round(time.Microsecond),
		float64(r.FilesAt62K)/1e6)
}

// --- LOADBAL: mesh load balance --------------------------------------------

// LoadBalance reports the element-count balance of a decomposition (the
// "excellent load balancing" of the improved mesh design).
func LoadBalance(nex, nproc int) (mesh.LoadStats, error) {
	g, err := buildGlobe(earthmodel.EarthLike(), nex, nproc, nil)
	if err != nil {
		return mesh.LoadStats{}, err
	}
	return mesh.ComputeLoadStats(g.Locals), nil
}
