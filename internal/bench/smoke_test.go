package bench

import (
	"path/filepath"
	"testing"
)

// TestSmokeEveryMetricOnce runs all four workloads at smoke sizes, both
// untraced and traced, and checks that each run reports exactly the
// metrics BENCHMARK.json declares for its mode, each with its declared
// unit, and that every correctness check passes.
func TestSmokeEveryMetricOnce(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads()) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(spec.Workloads), len(Workloads()))
	}
	for i, w := range Workloads() {
		if spec.Workloads[i].Name != w {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, spec.Workloads[i].Name, w)
		}
	}
	CurrentEnv("")
	scratch := t.TempDir()
	for _, traced := range []bool{false, true} {
		declared := spec.EndToEnd
		if traced {
			declared = spec.PerLayer
		}
		for _, w := range Workloads() {
			res, err := Run(Options{Workload: w, Seed: 5, Trace: traced, Sizes: SmokeSizes(), ScratchDir: scratch})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w, traced, res.Attempted, res.Failed, res.Failures)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w, traced, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not reported", w, traced, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, declared %q", w, traced, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w, d.Name, m.Value)
				}
			}
			if traced && len(res.Spans()) == 0 {
				t.Errorf("%s: the traced run recorded no spans", w)
			}
		}
	}
}

// TestDeclarationsMatchSpec keeps the harness's metric tables and
// BENCHMARK.json in step (names, units, directions, order).
func TestDeclarationsMatchSpec(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(EndToEnd) || len(spec.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json: %d end-to-end and %d per-layer metrics, harness: %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(EndToEnd), len(PerLayer))
	}
	seen := map[string]bool{}
	for i, e := range EndToEnd {
		if s := spec.EndToEnd[i]; s.Name != e[0] || s.Unit != e[1] || s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: spec %+v, harness %v", i, s, e)
		}
		seen[e[0]] = true
	}
	for i, p := range PerLayer {
		if s := spec.PerLayer[i]; s.Name != p.Name || s.Unit != p.Unit || s.Better != p.Better {
			t.Errorf("per-layer metric %d: spec %+v, harness %+v", i, s, p)
		}
		if seen[p.Name] {
			t.Errorf("metric name %s declared twice", p.Name)
		}
		seen[p.Name] = true
	}
}

// TestGoldenReferencesCoverFullSizes: every workload has a committed
// reference recorded for exactly the sizes the benchmark runs.
func TestGoldenReferencesCoverFullSizes(t *testing.T) {
	for _, w := range Workloads() {
		g, err := loadGolden(w, FullSizes())
		if err != nil || g == nil {
			t.Fatalf("%s: no golden reference for FullSizes (err %v); run specbench -record-golden", w, err)
		}
		scs, _ := goldenScenarios(w, FullSizes())
		for _, sc := range scs {
			for _, name := range nearNames(sc) {
				if s, ok := g.Series[name]; !ok || len(s.X) == 0 || energy(s.X, s.Y, s.Z) == 0 {
					t.Errorf("%s: golden trace %s missing or silent", w, name)
				}
			}
		}
		if g2, _ := loadGolden(w, SmokeSizes()); g2 != nil {
			t.Errorf("%s: the golden reference must not apply to smoke sizes", w)
		}
	}
}
