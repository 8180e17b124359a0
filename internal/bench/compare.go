package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Spec is BENCHMARK.json: the contract every performance claim is
// measured under.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one declared metric. Bound is the share of the old
// value by which an end-to-end metric may get worse.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &s, nil
}

// LoadFile reads a result file.
func LoadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if f.Schema != SchemaVersion {
		return nil, fmt.Errorf("bench: %s has schema %q, want %q", path, f.Schema, SchemaVersion)
	}
	return &f, nil
}

// Verdicts of a comparison row.
const (
	VerdictBetter     = "better"
	VerdictOK         = "ok"
	VerdictWorse      = "worse"
	VerdictUnresolved = "unresolved"
)

// CompareRow is one workload × end-to-end metric comparison.
type CompareRow struct {
	Workload, Metric, Unit string
	Old, New               float64
	// DeltaPct is the change of the value in percent of the old one;
	// positive means the number grew, whatever its direction.
	DeltaPct float64
	Bound    float64
	Verdict  string
	Noisy    bool
}

// Verdict judges one metric by its values in two runs. A run whose best
// reps disagree by more than the bound (FloorGap) cannot resolve a
// change of that size: unresolved, not unchanged.
func Verdict(old, new Metric, better string, bound float64) string {
	if FloorGap(old.Samples, better) > bound || FloorGap(new.Samples, better) > bound {
		return VerdictUnresolved
	}
	if old.Value == 0 {
		return VerdictUnresolved
	}
	worse := (new.Value - old.Value) / old.Value
	if better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		return VerdictWorse
	case worse < -bound:
		return VerdictBetter
	}
	return VerdictOK
}

// Compare judges every end-to-end metric of every workload present in
// both files. failedRose reports whether any workload's failed share
// went up.
func Compare(old, new *File, spec *Spec) (rows []CompareRow, failedRose bool) {
	newBy := map[string]*WorkloadResult{}
	for i := range new.Workloads {
		newBy[new.Workloads[i].Name] = &new.Workloads[i]
	}
	for i := range old.Workloads {
		o := &old.Workloads[i]
		n := newBy[o.Name]
		if n == nil || o.Traced || n.Traced {
			continue
		}
		if failedShare(n) > failedShare(o) {
			failedRose = true
		}
		for _, sm := range spec.EndToEnd {
			om, okO := o.Metrics[sm.Name]
			nm, okN := n.Metrics[sm.Name]
			if !okO || !okN {
				continue
			}
			row := CompareRow{
				Workload: o.Name, Metric: sm.Name, Unit: sm.Unit,
				Old: om.Value, New: nm.Value, Bound: sm.Bound,
				Verdict: Verdict(om, nm, sm.Better, sm.Bound),
				Noisy:   o.Noisy || n.Noisy,
			}
			if om.Value != 0 {
				row.DeltaPct = 100 * (nm.Value - om.Value) / om.Value
			}
			rows = append(rows, row)
		}
	}
	return rows, failedRose
}

func failedShare(w *WorkloadResult) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

// PrintCompare renders the rows and returns whether the comparison
// fails (any worse row, or a rise in the failed share).
func PrintCompare(w io.Writer, rows []CompareRow, failedRose bool) (failed bool) {
	fmt.Fprintf(w, "%-16s %-20s %12s %12s %8s %7s  %s\n", "workload", "metric", "old", "new", "delta", "bound", "verdict")
	for _, r := range rows {
		note := ""
		if r.Noisy {
			note = " (noisy host)"
		}
		fmt.Fprintf(w, "%-16s %-20s %12.5g %12.5g %+7.1f%% %6.0f%%  %s%s\n",
			r.Workload, r.Metric, r.Old, r.New, r.DeltaPct, 100*r.Bound, r.Verdict, note)
		failed = failed || r.Verdict == VerdictWorse
	}
	if failedRose {
		fmt.Fprintln(w, "failed_share rose")
	}
	return failed || failedRose
}
