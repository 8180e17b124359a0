package bench

import (
	"bytes"
	"strings"
	"testing"
)

// synth builds a one-workload result file whose metrics have a given
// value and a given gap between their best and third best rep.
func synth(failed int, metrics map[string][2]float64) *File {
	w := WorkloadResult{Name: "prem_full_solve", Attempted: 100, Failed: failed, Metrics: map[string]Metric{}}
	for name, vg := range metrics {
		v, gap := vg[0], vg[1]
		worse := 1 + gap
		if name == "steps_per_s" { // higher is better
			worse = 1 - gap
		}
		samples := []float64{v * worse * worse, v, v * worse, v * worse}
		w.Metrics[name] = Metric{Value: v, Summary: Summarize(samples), Samples: samples}
	}
	return &File{Schema: SchemaVersion, Workloads: []WorkloadResult{w}}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &Spec{EndToEnd: []SpecMetric{
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10},
		{Name: "steps_per_s", Unit: "steps/s", Better: "higher", Bound: 0.10},
		{Name: "time_to_solution_s", Unit: "s", Better: "lower", Bound: 0.10},
		{Name: "first_chunk_s", Unit: "s", Better: "lower", Bound: 0.15},
	}}
	old := synth(0, map[string][2]float64{
		"setup_s": {1.0, 0.02}, "steps_per_s": {10, 0.02}, "time_to_solution_s": {5, 0.02}, "first_chunk_s": {0.2, 0.02}})
	cur := synth(0, map[string][2]float64{
		"setup_s":            {1.2, 0.02},  // 20 % slower: worse
		"steps_per_s":        {12, 0.02},   // 20 % more throughput: better
		"time_to_solution_s": {5.2, 0.02},  // 4 %: inside the bound
		"first_chunk_s":      {0.21, 0.30}, // best reps disagree by more than the bound
	})
	rows, failedRose := Compare(old, cur, spec)
	got := map[string]string{}
	for _, r := range rows {
		got[r.Metric] = r.Verdict
	}
	want := map[string]string{"setup_s": VerdictWorse, "steps_per_s": VerdictBetter,
		"time_to_solution_s": VerdictOK, "first_chunk_s": VerdictUnresolved}
	for m, v := range want {
		if got[m] != v {
			t.Errorf("%s: verdict %q, want %q", m, got[m], v)
		}
	}
	if failedRose {
		t.Error("failed share did not rise")
	}
	var buf bytes.Buffer
	if !PrintCompare(&buf, rows, failedRose) {
		t.Error("a worse row must fail the comparison")
	}
	if !strings.Contains(buf.String(), "setup_s") || !strings.Contains(buf.String(), "+20.0%") {
		t.Errorf("comparison table lacks the setup_s row:\n%s", buf.String())
	}

	// A throughput drop is worse; equal files are all ok; a rise in the
	// failed share fails on its own.
	drop := synth(0, map[string][2]float64{"steps_per_s": {8, 0.02}})
	if rows, _ := Compare(old, drop, spec); len(rows) != 1 || rows[0].Verdict != VerdictWorse {
		t.Errorf("throughput drop: %+v", rows)
	}
	rows, failedRose = Compare(old, old, spec)
	if PrintCompare(&bytes.Buffer{}, rows, failedRose) {
		t.Error("a file compared with itself must pass")
	}
	rows, failedRose = Compare(old, synth(1, map[string][2]float64{"setup_s": {1.0, 0.02}}), spec)
	if !failedRose || !PrintCompare(&bytes.Buffer{}, rows, failedRose) {
		t.Error("a rise in failed_share must fail the comparison")
	}
}
