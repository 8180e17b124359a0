// Package core is the public façade of the reproduction: it wires the
// mesher (internal/meshfem), station location (internal/stations) and
// the spectral-element solver (internal/solver) into one program, the
// merged application of section 4.1: the solver runs on the mesh the
// mesher built, in memory, with no intermediate files. The legacy
// per-core file database the merge removed is measured by
// internal/meshio, for figure 5 and IOMERGE only.
//
// A Config resembles the DATA/Par_file of SPECFEM3D_GLOBE: NEX_XI,
// NPROC_XI, the model, the physics switches (attenuation, rotation,
// gravity, oceans) and the event/station setup.
package core

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"specglobe/internal/cubedsphere"
	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/solver"
	"specglobe/internal/stations"
)

// Event is a CMT-style point source. The moment tensor uses the
// Harvard/Global CMT convention: components in the local (r, theta,
// phi) = (up, south, east) basis, in N*m.
type Event struct {
	Name   string
	LatDeg float64
	LonDeg float64
	DepthM float64
	// Moment tensor components (N*m), CMT convention.
	Mrr, Mtt, Mpp, Mrt, Mrp, Mtp float64
	// HalfDurationSec controls the Gaussian source time function; 0
	// selects 10 s.
	HalfDurationSec float64
}

// Validate refuses an event the solver cannot run: a NaN or infinite
// latitude, longitude, depth, moment-tensor component or half duration,
// a latitude outside [-90°, 90°] or a negative half duration. The error
// names the field.
func (e Event) Validate() error {
	if err := validate("event", e.Name, e.LatDeg, []namedValue{
		{"latitude", e.LatDeg}, {"longitude", e.LonDeg}, {"depth", e.DepthM},
		{"Mrr", e.Mrr}, {"Mtt", e.Mtt}, {"Mpp", e.Mpp}, {"Mrt", e.Mrt}, {"Mrp", e.Mrp}, {"Mtp", e.Mtp},
		{"half duration", e.HalfDurationSec},
	}); err != nil {
		return err
	}
	if e.HalfDurationSec < 0 {
		return fmt.Errorf("core: event %q: half duration %g s is negative (0 selects the default)", e.Name, e.HalfDurationSec)
	}
	return nil
}

// ValidateStation refuses a station with a NaN or infinite latitude,
// longitude or depth, or a latitude outside [-90°, 90°], naming the
// field.
func ValidateStation(st stations.Station) error {
	return validate("station", st.Name, st.LatDeg, []namedValue{
		{"latitude", st.LatDeg}, {"longitude", st.LonDeg}, {"depth", st.DepthM},
	})
}

type namedValue struct {
	name string
	v    float64
}

// validate refuses the first non-finite value of a source or station
// and a latitude outside [-90°, 90°].
func validate(what, name string, lat float64, vals []namedValue) error {
	for _, f := range vals {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s %q: %s is %g", what, name, f.name, f.v)
		}
	}
	if math.Abs(lat) > 90 {
		return fmt.Errorf("core: %s %q: latitude %g° is outside [-90°, 90°]", what, name, lat)
	}
	return nil
}

// ScalarMoment returns the scalar seismic moment M0 of the event.
func (e Event) ScalarMoment() float64 {
	sum := e.Mrr*e.Mrr + e.Mtt*e.Mtt + e.Mpp*e.Mpp +
		2*(e.Mrt*e.Mrt+e.Mrp*e.Mrp+e.Mtp*e.Mtp)
	return math.Sqrt(sum / 2)
}

// MomentMagnitude returns Mw = 2/3 (log10 M0 - 9.1).
func (e Event) MomentMagnitude() float64 {
	m0 := e.ScalarMoment()
	if m0 <= 0 {
		return math.Inf(-1)
	}
	return 2.0 / 3.0 * (math.Log10(m0) - 9.1)
}

// CartesianMomentTensor rotates the CMT (r, theta, phi) tensor into the
// Earth-centered Cartesian frame at the epicenter.
func (e Event) CartesianMomentTensor() [3][3]float64 {
	lat := e.LatDeg * math.Pi / 180
	lon := e.LonDeg * math.Pi / 180
	theta := math.Pi/2 - lat // colatitude
	st, ct := math.Sin(theta), math.Cos(theta)
	sp, cp := math.Sin(lon), math.Cos(lon)
	rHat := [3]float64{st * cp, st * sp, ct}
	tHat := [3]float64{ct * cp, ct * sp, -st} // south
	pHat := [3]float64{-sp, cp, 0}            // east
	var m [3][3]float64
	// Off-diagonal CMT components contribute symmetrically:
	// M_ab (a b^T + b a^T).
	addSym := func(s float64, a, b [3]float64) {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m[i][j] += s * (a[i]*b[j] + b[i]*a[j])
			}
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			m[i][j] += e.Mrr * rHat[i] * rHat[j]
			m[i][j] += e.Mtt * tHat[i] * tHat[j]
			m[i][j] += e.Mpp * pHat[i] * pHat[j]
		}
	}
	addSym(e.Mrt, rHat, tHat)
	addSym(e.Mrp, rHat, pHat)
	addSym(e.Mtp, tHat, pHat)
	return m
}

// Config describes a complete simulation, Par_file style.
type Config struct {
	// NexXi is NEX_XI (elements per chunk side); NProcXi is NPROC_XI.
	NexXi, NProcXi int
	// Model is the radial Earth model; nil selects PREM.
	Model earthmodel.Model
	// RecordSeconds is the simulated signal duration; Steps overrides
	// it when positive.
	RecordSeconds float64
	Steps         int
	// Dt overrides the automatic stable time step when positive.
	Dt float64

	// Doublings lists explicit mesh-doubling radii (meters, descending);
	// AutoDoubling, when non-nil and Doublings is empty, derives them
	// from the model's minimum-wavelength profile (meshfem.PlanDoublings).
	// Both empty means a single angular resolution.
	Doublings    []float64
	AutoDoubling *meshfem.AutoDoubling

	// Physics switches (the benchmark set of section 3).
	Attenuation bool
	Rotation    bool
	Gravity     bool
	OceanLoad   bool

	// Engineering switches studied in section 4.
	Kernel        solver.Kernel
	TwoPassMesher bool
	// CombinedSolidHalo is retired (solver.Options.CombinedSolidHalo):
	// every run sends the combined solid halo, and Run ignores it.
	CombinedSolidHalo bool
	// Workers caps the solver's concurrent compute (0 = GOMAXPROCS,
	// 1 = serial; solver.Options.Workers). Results are bit-identical at
	// every worker count.
	Workers int
	// LTS and LTSMaxRate are retired (solver.Options.LTS): Run refuses
	// a true LTS or a non-zero LTSMaxRate.
	LTS        bool
	LTSMaxRate int

	// Event and stations.
	Event        Event
	Stations     []stations.Station
	SnapStations bool
	RecordEvery  int
	EnergyEvery  int
}

// MesherConfig is the mesher's part of the Config.
func (c Config) MesherConfig() meshfem.Config {
	return meshfem.Config{
		NexXi:            c.NexXi,
		NProcXi:          c.NProcXi,
		Model:            c.Model,
		Doublings:        c.Doublings,
		AutoDoubling:     c.AutoDoubling,
		TwoPassMaterials: c.TwoPassMesher,
	}
}

// SolverOptions is the solver's part of the Config for a run of steps
// time steps; the caller sets the streaming fields.
func (c Config) SolverOptions(steps int) solver.Options {
	return solver.Options{
		Dt:          c.Dt,
		Steps:       steps,
		Attenuation: c.Attenuation,
		Rotation:    c.Rotation,
		Gravity:     c.Gravity,
		OceanLoad:   c.OceanLoad,
		Kernel:      c.Kernel,
		Workers:     c.Workers,
		RecordEvery: c.RecordEvery,
		EnergyEvery: c.EnergyEvery,
		LTS:         c.LTS,
		LTSMaxRate:  c.LTSMaxRate,
	}
}

// Report is everything a run produces.
type Report struct {
	Config         Config
	Globe          *meshfem.Globe
	Result         *solver.Result
	MesherTime     time.Duration
	SolverTime     time.Duration
	ShortestPeriod float64
	Load           mesh.LoadStats
	StationErrors  float64 // worst station location residual (m)
}

// Run executes a full simulation: it builds a one-shot Session and runs
// the Config's event/station scenario on it.
func Run(cfg Config) (*Report, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	reps, err := s.RunBatchStream([]Scenario{{Name: cfg.Event.Name, Event: cfg.Event, Stations: cfg.Stations}}, 0, nil)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// WriteSeismograms writes every recorded seismogram as an ASCII file
// (time, x, y, z per line), the format downstream plotting expects.
// Single-source results keep the flat dir/NAME.sem layout; ensemble
// results are keyed by (source, station) with one source_NNN/
// subdirectory per batched wavefield.
func WriteSeismograms(dir string, res *solver.Result) error {
	if len(res.BySource) <= 1 {
		return writeSeismogramDir(dir, res.Seismograms)
	}
	for s, m := range res.BySource {
		sub := filepath.Join(dir, fmt.Sprintf("source_%03d", s))
		if err := writeSeismogramDir(sub, m); err != nil {
			return err
		}
	}
	return nil
}

// writeSeismogramDir writes one station-name-keyed seismogram map into
// dir as ASCII .sem files.
func writeSeismogramDir(dir string, seismos map[string]*solver.Seismogram) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, sg := range seismos {
		f, err := os.Create(filepath.Join(dir, name+".sem"))
		if err != nil {
			return err
		}
		err = writeSem(f, sg)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s.sem: %w", name, err)
		}
	}
	return nil
}

// writeSem writes one seismogram as .sem text through a buffer and
// returns the first write or flush error.
func writeSem(w io.Writer, sg *solver.Seismogram) error {
	bw := bufio.NewWriter(w)
	if err := WriteSemRows(bw, 0, sg.Dt, sg.X, sg.Y, sg.Z); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteSemRows is the one .sem row formatter: it writes samples
// [start, start+len(x)) of a record as "time x y z" lines, sample i at
// time (i+1)*dt, and returns the first write error. Rows written at
// their offsets in any number of pieces concatenate to the rows of the
// whole record. w should be buffered.
func WriteSemRows(w io.Writer, start int, dt float64, x, y, z []float32) error {
	for i := range x {
		if _, err := fmt.Fprintf(w, "%12.4f %14.6e %14.6e %14.6e\n",
			float64(start+i+1)*dt, x[i], y[i], z[i]); err != nil {
			return err
		}
	}
	return nil
}

// EpicentralDistanceDeg returns the great-circle distance in degrees
// between an event and a station — used by examples for travel-time
// sanity checks.
func EpicentralDistanceDeg(e Event, st stations.Station) float64 {
	a := cubedsphere.LatLon(e.LatDeg, e.LonDeg)
	b := cubedsphere.LatLon(st.LatDeg, st.LonDeg)
	d := a.Dot(b)
	if d > 1 {
		d = 1
	}
	if d < -1 {
		d = -1
	}
	return math.Acos(d) * 180 / math.Pi
}
