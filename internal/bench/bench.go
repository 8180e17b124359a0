// Package bench is the repo's one layered benchmark harness, driven by
// cmd/specbench: four workloads run the system in-process through its
// public façades (core, service), end-to-end metrics are measured with
// tracing off, and a separate traced run calls each layer's public
// functions (meshfem, mesh, meshio, stations, solver, mpi, simd) inside
// spans to say which layer the time went to. Inputs come from a seed;
// outputs are checked against committed golden references and bitwise
// invariants; every row carries its repetition count and spread.
//
// The package only measures: it adds no switch, span or counter inside
// the program, and it claims no gain. cmd/specbench/README.md holds the
// metric glossary and the layer → end-to-end interaction table.
package bench

import (
	"fmt"
	"os"
	"runtime"
	"strings"
)

// Workload names. Later issues refer to these and to the sizes below.
const (
	PremFullSolve  = "prem_full_solve"
	MeshSetup      = "mesh_setup"
	ServiceBurst   = "service_burst"
	SlicedStations = "sliced_stations"
)

// Workloads lists the workload names in their canonical order.
func Workloads() []string {
	return []string{PremFullSolve, MeshSetup, ServiceBurst, SlicedStations}
}

// workloadDef is what the harness knows about a workload by name.
type workloadDef struct {
	tag       string // prefix of generated event and station names
	scenarios int    // scenarios one repetition consumes
	ranks     string // rank counts, for valid_for
	maxRanks  int
	rep       func(c *runCtx, parent int, scs []Scenario) sample
}

var defs = map[string]workloadDef{
	PremFullSolve:  {"P", 1, "6 ranks", 6, (*runCtx).premRep},
	MeshSetup:      {"M", 3, "6, 6 and 24 ranks", 24, (*runCtx).setupRep},
	ServiceBurst:   {"J", 16, "6 ranks", 6, (*runCtx).serviceRep},
	SlicedStations: {"S", 1, "24 ranks", 24, (*runCtx).slicedRep},
}

// Sizes fixes the workload sizes. Only the repetition count adapts to
// the time box; FullSizes are what every recorded number refers to and
// SmokeSizes exist for the tier-1 smoke test alone.
type Sizes struct {
	// prem_full_solve: PREM, NProcXi 1, doublings at PremDoublings,
	// all four physics switches on.
	PremNex       int
	PremDoublings []float64
	PremSteps     int
	// mesh_setup: three sessions — earthlike SetupNex single
	// resolution, PREM PremNex doubled, earthlike SetupNex NProcXi 2 —
	// each followed by a SetupSteps-step usability solve. The earthlike
	// shapes are small on purpose: a rep of half a second gives a run
	// some forty reps, and a phase's floor needs many reps to be found
	// on a shared host (ten reps of 2 s spread 20–35 % between runs).
	SetupNex   int
	SetupSteps int
	// service_burst: earthlike ServiceNex jobs of ServiceSteps (and
	// ServiceSteps/2) steps.
	ServiceNex   int
	ServiceSteps int
	// sliced_stations: earthlike SlicedNex NProcXi 2 (24 ranks),
	// SlicedStationCount network stations, SlicedSteps steps.
	SlicedNex          int
	SlicedStationCount int
	SlicedSteps        int
	// SimdBlocks is the number of distinct 125-point element blocks the
	// kernel micro-run cycles through (4 096 = 8 MB of operands: well
	// past L2, like a real sweep).
	SimdBlocks int
}

// FullSizes are the benchmark's fixed sizes.
func FullSizes() Sizes {
	return Sizes{
		PremNex: 8, PremDoublings: []float64{5200e3, 3000e3}, PremSteps: 20,
		SetupNex: 4, SetupSteps: 2,
		ServiceNex: 4, ServiceSteps: 16,
		SlicedNex: 8, SlicedStationCount: 96, SlicedSteps: 12,
		SimdBlocks: 4096,
	}
}

// SmokeSizes shrink every workload to NEX 4 and a few steps.
func SmokeSizes() Sizes {
	return Sizes{
		PremNex: 4, PremDoublings: nil, PremSteps: 4,
		SetupNex: 4, SetupSteps: 2,
		ServiceNex: 4, ServiceSteps: 4,
		SlicedNex: 4, SlicedStationCount: 12, SlicedSteps: 4,
		SimdBlocks: 256,
	}
}

// Env stamps a result with the environment it is valid for.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// Procs is the load shape's processor count: min(nproc, 4). It is both
// GOMAXPROCS and the solver's Workers for every workload.
func Procs() int {
	return min(runtime.NumCPU(), 4)
}

// CurrentEnv applies the load shape (GOMAXPROCS = Procs) and returns
// the stamp. commit is whatever the caller knows (empty outside git).
func CurrentEnv(commit string) Env {
	p := Procs()
	runtime.GOMAXPROCS(p)
	return Env{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: p, Workers: p,
		CPUModel: cpuModel(), Commit: commit,
	}
}

// cpuModel reads the CPU model name where the OS exposes it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// Metric is one reported number. End-to-end rows carry the statistics
// of the per-rep values beside the value (a floor, see untraced; the
// median for live_heap_mb); counts and one-shot values have N = 1.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Summary
	// Samples are the timed reps' values, in rep order.
	Samples []float64 `json:"samples,omitempty"`
	// Skipped explains a value that could not be measured on this run
	// (then Value is 0).
	Skipped string `json:"skipped,omitempty"`
}

// WorkloadResult is everything one workload's run produced.
type WorkloadResult struct {
	Name   string `json:"name"`
	Traced bool   `json:"traced"`
	Seed   uint64 `json:"seed"`
	Reps   int    `json:"reps"`
	// Attempted / Failed count session builds, runs, jobs and
	// correctness checks; Correct is Failed == 0.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Failures  []string `json:"failures,omitempty"`
	// Noisy is set when the spin calibration drifted by more than 10 %
	// across the workload: its rows may show a bad neighbour, not a
	// regression.
	Noisy   bool       `json:"noisy"`
	CalibMs [2]float64 `json:"calib_ms"`
	// ValidFor states what the rows may be compared against.
	ValidFor string            `json:"valid_for"`
	Metrics  map[string]Metric `json:"metrics"`

	spans []Span
}

// Spans returns the spans a traced run recorded (nil otherwise).
func (r *WorkloadResult) Spans() []Span { return r.spans }

// File is the schema of a result file (specbench -out), the input of
// specbench -compare.
type File struct {
	Schema    string           `json:"schema"`
	Env       Env              `json:"env"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Claim     *string          `json:"claim"`
	Workloads []WorkloadResult `json:"workloads"`
}

// SchemaVersion identifies the result-file layout.
const SchemaVersion = "specbench/1"

// checker counts attempted operations and correctness checks.
type checker struct {
	attempted, failed int
	failures          []string
}

// ok records one attempted operation or check; a false cond is a
// failure with the given description.
func (c *checker) ok(cond bool, format string, args ...any) bool {
	c.attempted++
	if !cond {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
	return cond
}

// err records an operation that returned err (nil = success).
func (c *checker) err(err error, what string) bool {
	return c.ok(err == nil, "%s: %v", what, err)
}
