package perfmodel

import (
	"fmt"
	"math"

	"specglobe/internal/linalg"
	"specglobe/internal/mpi"
)

// Resolution conversion, figure 5 caption: Resolution = 256*17 / period.
const resolutionConstant = 256.0 * 17.0

// PeriodToResolution converts a shortest seismic period in seconds to
// the NEX_XI resolution parameter.
func PeriodToResolution(period float64) float64 { return resolutionConstant / period }

// ResolutionToPeriod converts NEX_XI to the shortest period in seconds.
func ResolutionToPeriod(res float64) float64 { return resolutionConstant / res }

// --- Power-law fits: figure 5, figure 7 and the memory model ----------

// Sample is one (x, y) measurement.
type Sample struct{ X, Y float64 }

// PowerModel is a power-law regression y = A·res^B of a measured
// quantity against NEX resolution: legacy-database disk usage (figure
// 5's "Model" curve), total core-seconds at a fixed step count (figure
// 7: the paper's data spans a factor of ~300 between res 96 and res 640,
// an exponent of about 3, as the element count grows with res^3) and
// total in-memory mesh bytes (section 4: 37 TB, 1.85 GB/core, ~62K
// cores).
type PowerModel struct {
	Fit linalg.PowerLaw
	R2  float64
}

// FitPowerModel fits the samples' Y against their resolution X.
func FitPowerModel(samples []Sample) (*PowerModel, error) {
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		xs[i], ys[i] = s.X, s.Y
	}
	fit, err := linalg.FitPowerLaw(xs, ys)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: power-law fit: %w", err)
	}
	return &PowerModel{Fit: fit, R2: fit.RSquared(xs, ys)}, nil
}

// At predicts the quantity at a resolution.
func (m *PowerModel) At(res float64) float64 { return m.Fit.Eval(res) }

// AtPeriod predicts the quantity for a shortest period.
func (m *PowerModel) AtPeriod(period float64) float64 {
	return m.At(PeriodToResolution(period))
}

// NormalizedSeries evaluates the model at the given resolutions and
// normalizes by the first value — the exact presentation of figure 7.
func (m *PowerModel) NormalizedSeries(res []float64) []float64 {
	out := make([]float64, len(res))
	base := m.At(res[0])
	for i, r := range res {
		out[i] = m.At(r) / base
	}
	return out
}

// CoresNeeded returns, for a mesh-memory model, the number of cores
// needed to hold the mesh at a resolution given the usable memory per
// core in GB (the paper's arithmetic: 37 TB at 1.85 GB/core requires
// around 62K cores well within the shortest-period band).
func (m *PowerModel) CoresNeeded(res float64, gbPerCore float64) float64 {
	return m.At(res) / (gbPerCore * 1e9)
}

// CalibratedToPaper returns a copy of a mesh-memory model rescaled so
// that the 2-second mesh occupies exactly the paper's 37 TB, keeping
// the fitted exponent. The Go mesh deliberately stores more per point
// (float64 coordinates, |J| beside the metric terms) than SPECFEM's packed
// Fortran arrays, so the measured constant over-predicts absolute
// sizes; the calibrated model represents the original code's footprint
// and drives the Table 6 shortest-period column.
func (m *PowerModel) CalibratedToPaper() *PowerModel {
	res2s := PeriodToResolution(2)
	scale := 37e12 / m.Fit.Eval(res2s)
	out := *m
	out.Fit.A *= scale
	return &out
}

// ShortestPeriodOnPartition inverts a mesh-memory model: the smallest
// period whose mesh fits in cores * gbPerCore of memory (with the
// standard rule that the solver can use about half the node memory for
// the mesh).
func (m *PowerModel) ShortestPeriodOnPartition(cores int, gbPerCore float64) float64 {
	budget := float64(cores) * gbPerCore * 1e9 * 0.5
	// Invert bytes = A * res^B.
	res := math.Pow(budget/m.Fit.A, 1/m.Fit.B)
	return ResolutionToPeriod(res)
}

// --- Figure 6: communication time vs core count -------------------------

// CommSample is one measured run: core count P, resolution, and the
// total communication time summed over all ranks (seconds).
type CommSample struct {
	P         int
	Res       float64
	TotalComm float64
}

// CommModel fits the two-term form the slice decomposition implies:
//
//	T_total(P, res) = c1 * res^2 * sqrt(P)  +  c2 * P
//
// The first term is the halo volume (total boundary area grows with
// res^2 * NPROC_XI = res^2 * sqrt(P/6)); the second is the per-step
// per-rank message overhead.
type CommModel struct {
	C1, C2 float64
}

// FitCommModel fits the model by linear least squares.
func FitCommModel(samples []CommSample) (*CommModel, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("perfmodel: need >= 2 comm samples, got %d", len(samples))
	}
	a := make([][]float64, len(samples))
	b := make([]float64, len(samples))
	for i, s := range samples {
		a[i] = []float64{s.Res * s.Res * math.Sqrt(float64(s.P)), float64(s.P)}
		b[i] = s.TotalComm
	}
	c, err := linalg.LeastSquares(a, b)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: comm fit: %w", err)
	}
	return &CommModel{C1: c[0], C2: c[1]}, nil
}

// TotalComm predicts the total communication time (all ranks, seconds).
func (c *CommModel) TotalComm(p int, res float64) float64 {
	return c.C1*res*res*math.Sqrt(float64(p)) + c.C2*float64(p)
}

// PerCoreComm predicts communication seconds per core.
func (c *CommModel) PerCoreComm(p int, res float64) float64 {
	return c.TotalComm(p, res) / float64(p)
}

// ForMachine rescales a model fitted on the default (SeaStar2-class)
// virtual interconnect to another machine of the catalog: the res^2
// term carries the halo bytes, so it scales with the inverse bandwidth
// ratio; the P term carries the per-rank message overhead, so it scales
// with the latency ratio. Machines without interconnect figures return
// the model unchanged.
func (c *CommModel) ForMachine(m Machine) *CommModel {
	// The reference interconnect the measurements ran on: the mpi
	// defaults, converted to the catalog's units.
	refLatencyUS := mpi.DefaultLinkLatency * 1e6
	refLinkBWGBs := mpi.DefaultLinkBandwidth / 1e9
	out := &CommModel{C1: c.C1, C2: c.C2}
	if m.LinkBWGBs > 0 {
		out.C1 *= refLinkBWGBs / m.LinkBWGBs
	}
	if m.LatencyUS > 0 {
		out.C2 *= m.LatencyUS / refLatencyUS
	}
	return out
}

// CommFraction combines the communication and runtime models into the
// quantity section 5 reports: communication time as a fraction of total
// execution time for all cores.
func CommFraction(cm *CommModel, rm *PowerModel, p int, res float64) float64 {
	comm := cm.TotalComm(p, res)
	total := rm.At(res)
	if total <= 0 {
		return 0
	}
	return comm / (total + comm)
}

// --- Report formatting ----------------------------------------------------

// HumanBytes formats a byte count with binary-ish units the way the
// paper quotes them (TB = 1e12 here, matching "over 14 TB").
func HumanBytes(b float64) string {
	switch {
	case b >= 1e12:
		return fmt.Sprintf("%.1f TB", b/1e12)
	case b >= 1e9:
		return fmt.Sprintf("%.1f GB", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.1f MB", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.1f KB", b/1e3)
	}
	return fmt.Sprintf("%.0f B", b)
}
