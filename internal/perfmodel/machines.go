// Package perfmodel implements the performance models of the paper's
// section 5: disk-space versus resolution (figure 5), total
// communication time versus core count (figure 6), total runtime versus
// resolution (figure 7), sustained-FLOPS and memory models, and the
// machine catalog used to reproduce the section 6 production-run table.
//
// The models are fitted to measurements from the live Go solver at
// laptop scale and extrapolated with the same functional forms the
// paper uses; the machine catalog uses a roofline-style sustained-
// performance estimate calibrated against the published runs.
package perfmodel

import (
	"fmt"
	"math"
	"strings"

	"specglobe/internal/mpi"
)

// Machine describes one of the four systems of section 5.
type Machine struct {
	Name string
	Site string
	// TotalCores is the full system size.
	TotalCores int
	// ClockGHz is the processor clock.
	ClockGHz float64
	// PeakGflopsPerCore is the theoretical peak per core implied by the
	// paper's quoted system peaks.
	PeakGflopsPerCore float64
	// ScalarPeakGflopsPerCore is what scalar code attains on one core,
	// measured for the local host only (0 for the catalog machines):
	// the ceiling of the solver's Go kernels, next to the 8-lane
	// PeakGflopsPerCore its assembly bodies run against.
	ScalarPeakGflopsPerCore float64
	// MemBWPerCoreGBs is the sustainable memory bandwidth per core
	// (node bandwidth divided by cores per node).
	MemBWPerCoreGBs float64
	// MemPerCoreGB is the memory available per core.
	MemPerCoreGB float64
	// RmaxTflops is the LINPACK Rmax (0 if unpublished).
	RmaxTflops float64
	// LatencyUS and LinkBWGBs describe the interconnect: MPI latency in
	// microseconds and sustained per-link bandwidth in GB/s. They feed
	// the virtual interconnect of internal/mpi (via mpi.Options) and the
	// per-machine rescaling of the figure 6 communication model.
	LatencyUS float64
	LinkBWGBs float64
}

// Net returns the machine's interconnect as simulated-MPI options, for
// plumbing a catalog entry straight into solver runs.
func (m Machine) Net() mpi.Options {
	return mpi.Options{LatencyUS: m.LatencyUS, LinkBWGBs: m.LinkBWGBs}
}

// Catalog lists Ranger, Franklin, Kraken and Jaguar with the figures
// given in section 5 of the paper (peaks, clocks, memory) and standard
// DDR2 node bandwidths for the bandwidth column.
func Catalog() []Machine {
	return []Machine{
		{
			Name: "Ranger", Site: "TACC",
			TotalCores: 62976, ClockGHz: 2.0,
			// 504 Tflops / 62976 cores.
			PeakGflopsPerCore: 8.0,
			// 4-socket quad-core nodes, DDR2-667: ~42.6 GB/s per node.
			MemBWPerCoreGBs: 42.6 / 16,
			// 32 GB per 16-core node.
			MemPerCoreGB: 2.0,
			RmaxTflops:   326,
			// SDR InfiniBand fat tree.
			LatencyUS: 2.7, LinkBWGBs: 0.95,
		},
		{
			Name: "Franklin", Site: "NERSC",
			TotalCores: 19320, ClockGHz: 2.6,
			// 101.5 Tflops / 19320 cores.
			PeakGflopsPerCore: 5.25,
			// Dual-core XT4 node, DDR2-800: 12.8 GB/s per node.
			MemBWPerCoreGBs: 12.8 / 2,
			MemPerCoreGB:    2.0,
			RmaxTflops:      85,
			// Cray SeaStar2 3D torus.
			LatencyUS: 5.0, LinkBWGBs: 2.0,
		},
		{
			Name: "Kraken", Site: "NICS",
			TotalCores: 18048, ClockGHz: 2.3,
			// 166 Tflops / 18048 cores.
			PeakGflopsPerCore: 9.2,
			// Quad-core XT4 node, DDR2-800.
			MemBWPerCoreGBs: 12.8 / 4,
			MemPerCoreGB:    1.0,
			RmaxTflops:      0,                   // unknown at publication time
			LatencyUS:       5.0, LinkBWGBs: 2.0, // SeaStar2
		},
		{
			Name: "Jaguar", Site: "ORNL",
			TotalCores: 31328, ClockGHz: 2.1,
			// 263 Tflops / 31328 cores.
			PeakGflopsPerCore: 8.4,
			// Quad-core XT4 node, DDR2-800.
			MemBWPerCoreGBs: 12.8 / 4,
			MemPerCoreGB:    2.0,
			RmaxTflops:      205,
			LatencyUS:       5.0, LinkBWGBs: 2.0, // SeaStar2
		},
	}
}

// Roofline calibration constants: SPECFEM3D_GLOBE sustains about 38% of
// peak when compute bound and has an effective arithmetic intensity of
// about 0.36 flop/byte on these Opteron systems (both calibrated against
// the four published runs; see EXPERIMENTS.md TAB6).
const (
	CPUEfficiency       = 0.38
	ArithmeticIntensity = 0.36 // flop/byte
)

// SustainedGflopsPerCore is the roofline estimate: the lesser of the
// compute ceiling and the bandwidth ceiling.
func (m Machine) SustainedGflopsPerCore() float64 {
	compute := CPUEfficiency * m.PeakGflopsPerCore
	bandwidth := ArithmeticIntensity * m.MemBWPerCoreGBs
	return math.Min(compute, bandwidth)
}

// SustainedTflops is the model's sustained performance on a given core
// count.
func (m Machine) SustainedTflops(cores int) float64 {
	return m.SustainedGflopsPerCore() * float64(cores) / 1000
}

// PaperRun is one production run from section 6 of the paper.
type PaperRun struct {
	Machine string
	Cores   int
	// PaperTflops is the published sustained performance.
	PaperTflops float64
	// PaperPeriodSec is the published shortest seismic period (0 where
	// the paper does not state one for that run).
	PaperPeriodSec float64
	Note           string
}

// PaperRuns lists every run reported in section 6.
func PaperRuns() []PaperRun {
	return []PaperRun{
		{Machine: "Franklin", Cores: 12150, PaperTflops: 24.0, PaperPeriodSec: 3.0,
			Note: "~6 h run, 44% of the partition's Rmax share"},
		{Machine: "Kraken", Cores: 9600, PaperTflops: 12.1},
		{Machine: "Kraken", Cores: 12696, PaperTflops: 16.0},
		{Machine: "Kraken", Cores: 17496, PaperTflops: 22.4, PaperPeriodSec: 2.52,
			Note: "temporary resolution record"},
		{Machine: "Jaguar", Cores: 29000, PaperTflops: 35.7, PaperPeriodSec: 1.94,
			Note: "flops record"},
		{Machine: "Ranger", Cores: 32000, PaperTflops: 28.7, PaperPeriodSec: 1.84,
			Note: "resolution record: the 2-second barrier broken"},
	}
}

// Table6Row is one reproduced row of the section 6 table.
type Table6Row struct {
	Run         PaperRun
	ModelTflops float64
	RelError    float64 // (model - paper) / paper
	ModelPeriod float64 // from the memory model, 0 if unavailable
}

// Table6 reproduces the production-run table with the roofline model
// and, when a memory model is supplied, the reachable shortest period on
// each run's partition (mem != nil).
func Table6(mem *PowerModel) []Table6Row {
	byName := map[string]Machine{}
	for _, m := range Catalog() {
		byName[m.Name] = m
	}
	var rows []Table6Row
	for _, run := range PaperRuns() {
		m := byName[run.Machine]
		row := Table6Row{Run: run, ModelTflops: m.SustainedTflops(run.Cores)}
		row.RelError = (row.ModelTflops - run.PaperTflops) / run.PaperTflops
		if mem != nil {
			row.ModelPeriod = mem.ShortestPeriodOnPartition(run.Cores, m.MemPerCoreGB)
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable6 renders the reproduced table.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %7s  %8s %8s %7s  %7s %7s\n",
		"machine", "cores", "paper", "model", "err%", "paperT", "modelT")
	fmt.Fprintf(&b, "%-9s %7s  %8s %8s %7s  %7s %7s\n",
		"", "", "Tflops", "Tflops", "", "(s)", "(s)")
	for _, r := range rows {
		period := "-"
		if r.Run.PaperPeriodSec > 0 {
			period = fmt.Sprintf("%.2f", r.Run.PaperPeriodSec)
		}
		modelPeriod := "-"
		if r.ModelPeriod > 0 {
			modelPeriod = fmt.Sprintf("%.2f", r.ModelPeriod)
		}
		fmt.Fprintf(&b, "%-9s %7d  %8.1f %8.1f %6.1f%%  %7s %7s\n",
			r.Run.Machine, r.Run.Cores, r.Run.PaperTflops, r.ModelTflops,
			100*r.RelError, period, modelPeriod)
	}
	return b.String()
}
