package bench

import (
	"math"
	"sort"
)

// Summary is the repetition statistics every timing row carries: n
// timed reps (the discarded warm-up rep is not counted), the median, the
// quartiles and the extremes.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Median returns the median of vs (0 for an empty slice, so that a
// failed run still serializes).
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile of vs exactly as
// Python's statistics.quantiles(vs, n=4) does (the default "exclusive"
// method: position i*(n+1)/4, linear interpolation, clamped to the
// data range), so a spread computed here is the spread the driver
// computes. Fewer than two values have no spread: both quartiles are
// the single value (0 when empty).
func Quartiles(vs []float64) (q1, q3 float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	s := sorted(vs)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// Summarize computes the Summary of vs.
func Summarize(vs []float64) Summary {
	if len(vs) == 0 {
		return Summary{}
	}
	s := sorted(vs)
	q1, q3 := Quartiles(s)
	return Summary{N: len(s), Median: Median(s), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1]}
}

// Floors returns, for each phase (column) of the reps (rows), the wall
// of its fastest repetition. Every row has the same phases.
func Floors(reps [][]float64) []float64 {
	if len(reps) == 0 {
		return nil
	}
	floors := append([]float64(nil), reps[0]...)
	for _, row := range reps[1:] {
		for k, v := range row {
			floors[k] = min(floors[k], v)
		}
	}
	return floors
}

// FloorGap says how well a run pinned a metric's floor: the distance
// from the best of its reps to the third best (the worst of fewer), as a
// share of the best. A run whose three best reps disagree by more than a
// metric's bound never saw the host quiet for long enough to resolve a
// change of that size.
func FloorGap(vs []float64, better string) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	if better == "higher" {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	if s[0] == 0 {
		return 0
	}
	return math.Abs(s[min(2, len(s)-1)]-s[0]) / math.Abs(s[0])
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
