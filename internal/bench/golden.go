package bench

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"

	"specglobe/internal/core"
	"specglobe/internal/service"
)

// MisfitLimit is the hard limit on misfit_max: the production path may
// differ from the scalar single-worker reference by accumulated float32
// roundoff only.
const MisfitLimit = 1e-3

//go:embed testdata/golden_*.json
var goldenFS embed.FS

// golden is a committed reference: the near-field seismograms of a
// workload's GoldenSeed inputs at FullSizes, computed with KernelScalar
// and Workers = 1.
type golden struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Sizes    Sizes             `json:"sizes"`
	Series   map[string]series `json:"series"`
}

func goldenName(workload string) string { return "golden_" + workload + ".json" }

// loadGolden returns the committed reference of a workload, or nil
// when none applies (sizes other than the recorded ones).
func loadGolden(workload string, sz Sizes) (*golden, error) {
	data, err := goldenFS.ReadFile("testdata/" + goldenName(workload))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", goldenName(workload), err)
	}
	if !reflect.DeepEqual(g.Sizes, sz) {
		return nil, nil
	}
	return &g, nil
}

// misfitMax is the largest per-event misfit of got against ref, each
// event measured over its own near-field stations.
func misfitMax(got, ref map[string]series, scs []Scenario) float64 {
	var worst float64
	for _, sc := range scs {
		worst = math.Max(worst, misfit(got, ref, nearNames(sc)))
	}
	return worst
}

// referenceRun computes the near-field reference traces of one
// scenario on one mesh/run shape with the scalar kernel on one worker
// — a one-shot core.Run, independent of the streamed, batched,
// vectorized paths the workloads exercise.
func referenceRun(spec service.JobSpec, sc Scenario, into map[string]series) error {
	spec.Kernel = "scalar"
	cfg, err := sessionSpec(spec, 1)
	if err != nil {
		return err
	}
	cfg.Event, cfg.Stations = sc.Event, sc.Near
	rep, err := core.Run(cfg)
	if err != nil {
		return err
	}
	for _, st := range sc.Near {
		sg := rep.Result.Seismograms[st.Name]
		if sg == nil {
			return fmt.Errorf("bench: reference run did not record %s", st.Name)
		}
		into[st.Name] = series{X: sg.X, Y: sg.Y, Z: sg.Z}
	}
	return nil
}

// goldenScenarios returns, per workload, the scenarios its warm-up rep
// replays and the mesh/run shape each one is referenced on.
func goldenScenarios(workload string, sz Sizes) ([]Scenario, []service.JobSpec) {
	scs := genScenarios(GoldenSeed, workload)
	var specs []service.JobSpec
	switch workload {
	case PremFullSolve:
		specs = []service.JobSpec{premSpec(sz)}
	case MeshSetup:
		specs = setupSpecs(sz)
	case SlicedStations:
		specs = []service.JobSpec{slicedSpec(sz)}
	case ServiceBurst:
		specs = append(burstJobs(sz, scs[:8], "cold"), burstJobs(sz, scs[8:], "warm")...)
	}
	return scs, specs
}

// RecordGolden recomputes every workload's reference and writes it
// into dir (internal/bench/testdata).
func RecordGolden(dir string) error {
	sz := FullSizes()
	for _, w := range Workloads() {
		scs, specs := goldenScenarios(w, sz)
		g := golden{Workload: w, Seed: GoldenSeed, Sizes: sz, Series: map[string]series{}}
		for i, sc := range scs {
			spec := specs[i]
			// The reference of a daemon job is its one-shot twin; only
			// the mesh/run shape of the spec matters here.
			spec.Event, spec.Stations = nil, nil
			if err := referenceRun(spec, sc, g.Series); err != nil {
				return fmt.Errorf("bench: golden %s event %d: %w", w, i, err)
			}
		}
		data, err := json.Marshal(g)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, goldenName(w)), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
