package bench

import (
	"math"
	"reflect"
	"testing"

	"specglobe/internal/core"
)

func TestSeedDeterminism(t *testing.T) {
	for _, w := range Workloads() {
		a, b := genScenarios(7, w), genScenarios(7, w)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated different scenarios", w)
		}
		c := genScenarios(8, w)
		for i := range a {
			if a[i].Event == c[i].Event {
				t.Errorf("%s: seeds 7 and 8 generated the same event %d", w, i)
			}
		}
	}
	sz := FullSizes()
	j1 := burstJobs(sz, genScenarios(7, ServiceBurst)[:8], "cold")
	j2 := burstJobs(sz, genScenarios(7, ServiceBurst)[:8], "cold")
	if !reflect.DeepEqual(j1, j2) {
		t.Error("the same seed generated different job specs")
	}
	// The burst mix: 4 long, 2 half-length, 2 attenuated jobs = 3 keys.
	keys := map[[2]int]int{}
	for _, j := range j1 {
		keys[[2]int{j.Steps, btoi(j.Attenuation)}]++
	}
	if len(keys) != 3 || keys[[2]int{sz.ServiceSteps, 0}] != 4 || burstSourceSteps(j1) != 7*sz.ServiceSteps {
		t.Errorf("burst mix = %v, %d source-steps", keys, burstSourceSteps(j1))
	}
}

func TestGeneratedScenariosAreWellFormed(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		for _, sc := range genScenarios(seed, ServiceBurst) {
			ev := sc.Event
			if math.Abs(ev.LatDeg) > 60 || math.Abs(ev.LonDeg) > 180 || ev.DepthM < 30e3 || ev.DepthM > 250e3 {
				t.Fatalf("seed %d: event out of range: %+v", seed, ev)
			}
			if m0 := ev.ScalarMoment(); math.Abs(m0-1e20) > 1e8 || math.Abs(ev.Mrr+ev.Mtt+ev.Mpp) > 1e8 {
				t.Fatalf("seed %d: moment tensor not deviatoric with M0 1e20: %+v", seed, ev)
			}
			if len(sc.Near) != nearPerEvent {
				t.Fatalf("seed %d: %d near-field stations", seed, len(sc.Near))
			}
			for _, st := range sc.Near {
				d := core.EpicentralDistanceDeg(ev, st)
				if d < 0.999 || d > 5.001 || math.Abs(st.LonDeg) > 180 {
					t.Fatalf("seed %d: near-field station %s at %.3f degrees, lon %g", seed, st.Name, d, st.LonDeg)
				}
			}
		}
	}
}

func TestMisfit(t *testing.T) {
	ref := map[string]series{"A": {X: []float32{1, 2}, Y: []float32{0, 0}, Z: []float32{2, 0}}}
	same := map[string]series{"A": ref["A"]}
	if m := misfit(same, ref, []string{"A"}); m != 0 {
		t.Errorf("misfit of identical traces = %g", m)
	}
	off := map[string]series{"A": {X: []float32{1, 2}, Y: []float32{0, 0.3}, Z: []float32{2, 0}}}
	if m := misfit(off, ref, []string{"A"}); math.Abs(m-0.1) > 1e-6 {
		t.Errorf("misfit = %g, want 0.1", m)
	}
	if m := misfit(map[string]series{}, ref, []string{"A"}); !math.IsInf(m, 1) {
		t.Errorf("misfit of a missing trace = %g, want +Inf", m)
	}
}
