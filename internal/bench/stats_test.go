package bench

import (
	"math"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.median / statistics.quantiles(v, n=4).
	cases := []struct {
		in          []float64
		med, q1, q3 float64
		min, max    float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25, 1, 10},
		{[]float64{3, 1, 2}, 2, 1, 3, 1, 3},
		{[]float64{1, 2}, 1.5, 0.75, 2.25, 1, 2},
		{[]float64{10, 10.5, 9.5, 10.2, 9.9, 10.1, 10.3, 9.8, 10, 10.4}, 10.05, 9.875, 10.325, 9.5, 10.5},
		{[]float64{7}, 7, 7, 7, 7, 7},
	}
	for _, c := range cases {
		s := Summarize(c.in)
		if s.N != len(c.in) || !near(s.Median, c.med) || !near(s.Q1, c.q1) || !near(s.Q3, c.q3) || s.Min != c.min || s.Max != c.max {
			t.Errorf("Summarize(%v) = %+v, want median %g q1 %g q3 %g", c.in, s, c.med, c.q1, c.q3)
		}
	}
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want the zero Summary", s)
	}
}

func TestFloorsAndFloorGap(t *testing.T) {
	// Each phase's fastest repetition, wherever it fell.
	got := Floors([][]float64{{3, 10, 0.5}, {2, 12, 0.7}, {4, 9, 0.6}})
	if want := []float64{2, 9, 0.5}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("Floors = %v, want %v", got, want)
	}
	if Floors(nil) != nil {
		t.Error("Floors(nil) must be nil")
	}
	// Best to third best, as a share of the best, in the metric's direction.
	if g := FloorGap([]float64{5, 1, 1.1, 1.3, 4}, "lower"); !near(g, 0.3) {
		t.Errorf("FloorGap lower = %g, want 0.3", g)
	}
	if g := FloorGap([]float64{10, 8, 9, 2}, "higher"); !near(g, 0.2) {
		t.Errorf("FloorGap higher = %g, want 0.2", g)
	}
	if g := FloorGap([]float64{2, 3}, "lower"); !near(g, 0.5) {
		t.Errorf("FloorGap of two = %g, want 0.5", g)
	}
	if FloorGap(nil, "lower") != 0 || FloorGap([]float64{7}, "lower") != 0 {
		t.Error("FloorGap of fewer than two values must be 0")
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
