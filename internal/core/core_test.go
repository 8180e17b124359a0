package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/meshfem"
	"specglobe/internal/solver"
	"specglobe/internal/stations"
)

// smallModel is a light Earth-like model for fast end-to-end runs.
func smallModel() earthmodel.Model {
	h := earthmodel.NewHomogeneous(6371e3, earthmodel.Material{
		Rho: 5000, Vp: 10000, Vs: 5500, Qmu: 300, Qkappa: 57823,
	})
	h.ICBRadius = 1221.5e3
	h.CMBRadius = 3480e3
	return h
}

// testEvent is a deep double-couple roughly like the Argentina events
// the paper simulated.
var testEvent = Event{
	Name: "test-event", LatDeg: -27.0, LonDeg: -63.0, DepthM: 150e3,
	Mrr: 1e20, Mtt: -0.5e20, Mpp: -0.5e20, Mrt: 0.3e20,
	HalfDurationSec: 20,
}

func TestEventMomentAndMagnitude(t *testing.T) {
	e := Event{Mrr: 1e20, Mtt: -1e20}
	m0 := e.ScalarMoment()
	if math.Abs(m0-1e20) > 1e17 {
		t.Errorf("M0 = %g want 1e20", m0)
	}
	// Mw = 2/3 (log10(1e20) - 9.1) = 2/3 * 10.9 = 7.27.
	if mw := e.MomentMagnitude(); math.Abs(mw-7.2667) > 0.01 {
		t.Errorf("Mw = %v want ~7.27", mw)
	}
	if !math.IsInf(Event{}.MomentMagnitude(), -1) {
		t.Error("zero tensor should have -inf magnitude")
	}
}

// The Cartesian moment tensor must be symmetric, preserve the Frobenius
// norm (rotation invariance) and preserve the trace (isotropic part).
func TestCartesianMomentTensorInvariants(t *testing.T) {
	e := Event{LatDeg: -27, LonDeg: -63,
		Mrr: 2e20, Mtt: -1e20, Mpp: -1e20, Mrt: 0.5e20, Mrp: -0.25e20, Mtp: 0.75e20}
	m := e.CartesianMomentTensor()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m[i][j] != m[j][i] {
				t.Fatalf("tensor not symmetric at (%d,%d)", i, j)
			}
		}
	}
	frob := 0.0
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			frob += m[i][j] * m[i][j]
		}
	}
	wantFrob := e.Mrr*e.Mrr + e.Mtt*e.Mtt + e.Mpp*e.Mpp +
		2*(e.Mrt*e.Mrt+e.Mrp*e.Mrp+e.Mtp*e.Mtp)
	if math.Abs(frob-wantFrob)/wantFrob > 1e-12 {
		t.Errorf("Frobenius norm changed under rotation: %g vs %g", frob, wantFrob)
	}
	tr := m[0][0] + m[1][1] + m[2][2]
	wantTr := e.Mrr + e.Mtt + e.Mpp
	if math.Abs(tr-wantTr) > 1e7 {
		t.Errorf("trace changed: %g vs %g", tr, wantTr)
	}
}

// An isotropic (explosion) tensor is rotation invariant: the Cartesian
// tensor must be M0 * identity regardless of epicenter.
func TestCartesianMomentTensorIsotropic(t *testing.T) {
	e := Event{LatDeg: 40, LonDeg: -120, Mrr: 3e19, Mtt: 3e19, Mpp: 3e19}
	m := e.CartesianMomentTensor()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 3e19
			}
			if math.Abs(m[i][j]-want) > 1e7 {
				t.Errorf("isotropic tensor broken at (%d,%d): %g", i, j, m[i][j])
			}
		}
	}
}

func TestRunMergedEndToEnd(t *testing.T) {
	rep, err := Run(Config{
		NexXi: 4, NProcXi: 1,
		Model:    smallModel(),
		Steps:    30,
		Event:    testEvent,
		Stations: stations.ReferenceStations()[:3],
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Result.Seismograms) != 3 {
		t.Errorf("%d seismograms, want 3", len(rep.Result.Seismograms))
	}
	if rep.ShortestPeriod <= 0 {
		t.Error("no resolution estimate")
	}
	if rep.Load.Imbalance < 1 {
		t.Errorf("impossible imbalance %v", rep.Load.Imbalance)
	}
	if rep.MesherTime <= 0 || rep.SolverTime <= 0 {
		t.Error("timers not recorded")
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{NexXi: 4, NProcXi: 1, Model: smallModel(), Event: testEvent}); err == nil {
		t.Error("missing Steps/RecordSeconds accepted")
	}
	bad := testEvent
	bad.DepthM = 4000e3 // outer core
	if _, err := Run(Config{NexXi: 4, NProcXi: 1, Model: smallModel(), Steps: 5, Event: bad}); err == nil {
		t.Error("event in the fluid outer core accepted")
	}
}

// Local time stepping was retired: solver.Run refuses Options.LTS and a
// non-zero LTSMaxRate with an error that says so, and core.Run surfaces
// it for the Config fields of the same names.
func TestRetiredLTSIsRefused(t *testing.T) {
	s, err := NewSession(Config{NexXi: 4, NProcXi: 1, Model: smallModel(), Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	src, err := s.locateSource(testEvent, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		lts     bool
		maxRate int
	}{{"lts", true, 0}, {"max-rate", false, 4}} {
		t.Run(c.name, func(t *testing.T) {
			_, err := solver.Run(&solver.Simulation{Locals: s.globe.Locals, Plans: s.globe.Plans, Sources: []solver.Source{src},
				Opts: solver.Options{Steps: 2, LTS: c.lts, LTSMaxRate: c.maxRate}})
			if err == nil || !strings.Contains(err.Error(), "local time stepping") || !strings.Contains(err.Error(), "retired") {
				t.Errorf("solver.Run: %v, want the retirement error", err)
			}
			_, err = Run(Config{NexXi: 4, NProcXi: 1, Model: smallModel(), Steps: 2, Event: testEvent,
				LTS: c.lts, LTSMaxRate: c.maxRate})
			if err == nil || !strings.Contains(err.Error(), "retired") {
				t.Errorf("core.Run: %v, want the retirement error", err)
			}
		})
	}
}

func TestRecordSecondsDerivesSteps(t *testing.T) {
	rep, err := Run(Config{
		NexXi: 4, NProcXi: 1,
		Model:         smallModel(),
		RecordSeconds: 30,
		Event:         testEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(rep.Result.Steps) * rep.Result.Dt; got < 30 || got > 40 {
		t.Errorf("simulated %g s, want >= 30", got)
	}
}

func TestWriteSeismograms(t *testing.T) {
	rep, err := Run(Config{
		NexXi: 4, NProcXi: 1,
		Model:    smallModel(),
		Steps:    10,
		Event:    testEvent,
		Stations: stations.ReferenceStations()[:2],
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteSeismograms(dir, rep.Result); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "ANMO.sem"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 10 {
		t.Errorf("%d samples written, want 10", len(lines))
	}
	if len(strings.Fields(lines[0])) != 4 {
		t.Errorf("bad line format: %q", lines[0])
	}
}

func TestEpicentralDistance(t *testing.T) {
	e := Event{LatDeg: 0, LonDeg: 0}
	if d := EpicentralDistanceDeg(e, stations.Station{LatDeg: 0, LonDeg: 90}); math.Abs(d-90) > 1e-9 {
		t.Errorf("quarter-circle distance %v", d)
	}
	if d := EpicentralDistanceDeg(e, stations.Station{LatDeg: 0, LonDeg: 180}); math.Abs(d-180) > 1e-9 {
		t.Errorf("antipodal distance %v", d)
	}
	if d := EpicentralDistanceDeg(e, stations.Station{LatDeg: 0, LonDeg: 0}); d > 1e-9 {
		t.Errorf("zero distance %v", d)
	}
}

func TestDefaultModelIsPREM(t *testing.T) {
	// NEX=4 PREM run: just check the model defaulting works end to end.
	rep, err := Run(Config{
		NexXi: 4, NProcXi: 1,
		Steps: 5,
		Event: testEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Config.Model.Name() != "PREM" {
		t.Errorf("default model %q", rep.Config.Model.Name())
	}
}

func TestRunWithDoublingSchedules(t *testing.T) {
	base := Config{
		NexXi: 8, NProcXi: 1,
		Model: smallModel(),
		Steps: 4,
		Event: testEvent,
	}
	uni, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if uni.Resolution.MinPts <= 0 || uni.Resolution.Elements == 0 {
		t.Fatalf("resolution audit missing: %+v", uni.Resolution)
	}

	// Explicit radii route through to the mesher.
	man := base
	man.Doublings = []float64{5200e3, 3000e3}
	mrep, err := Run(man)
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Globe.TotalElements() >= uni.Globe.TotalElements() {
		t.Errorf("manual doubling did not reduce elements: %d vs %d",
			mrep.Globe.TotalElements(), uni.Globe.TotalElements())
	}

	// AutoDoubling derives a schedule when no explicit radii are given.
	auto := base
	auto.AutoDoubling = &meshfem.AutoDoubling{}
	arep, err := Run(auto)
	if err != nil {
		t.Fatal(err)
	}
	if len(arep.Globe.Cfg.Doublings) == 0 {
		t.Error("auto run recorded no derived radii")
	}
	if arep.Globe.TotalElements() >= uni.Globe.TotalElements() {
		t.Errorf("auto doubling did not reduce elements: %d vs %d",
			arep.Globe.TotalElements(), uni.Globe.TotalElements())
	}
}

// An event or a station the solver cannot run is refused with an error
// naming the field, before anything runs: a non-finite latitude,
// longitude, depth, moment-tensor component or half duration, and a
// latitude beyond ±90° (which used to be wrapped silently). Non-finite
// values used to run to NaN seismograms with a nil error, and a negative
// half duration ran as the 10 s default.
func TestNonFiniteInputsAreRefused(t *testing.T) {
	s, err := NewSession(Config{NexXi: 4, NProcXi: 1, Model: smallModel(), Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	good := stations.ReferenceStations()[:1]
	for _, c := range []struct {
		name, want string
		ev         func(*Event)
		st         func(*stations.Station)
	}{
		{name: "event lat NaN", want: "latitude", ev: func(e *Event) { e.LatDeg = nan }},
		{name: "event lon Inf", want: "longitude", ev: func(e *Event) { e.LonDeg = inf }},
		{name: "event depth NaN", want: "depth", ev: func(e *Event) { e.DepthM = nan }},
		{name: "event Mrr NaN", want: "Mrr", ev: func(e *Event) { e.Mrr = nan }},
		{name: "event Mtp -Inf", want: "Mtp", ev: func(e *Event) { e.Mtp = -inf }},
		{name: "event half duration NaN", want: "half duration", ev: func(e *Event) { e.HalfDurationSec = nan }},
		{name: "event half duration -5", want: "half duration", ev: func(e *Event) { e.HalfDurationSec = -5 }},
		{name: "event lat 200", want: "outside [-90°, 90°]", ev: func(e *Event) { e.LatDeg = 200 }},
		{name: "station lat NaN", want: "latitude", st: func(st *stations.Station) { st.LatDeg = nan }},
		{name: "station lon -Inf", want: "longitude", st: func(st *stations.Station) { st.LonDeg = -inf }},
		{name: "station depth NaN", want: "depth", st: func(st *stations.Station) { st.DepthM = nan }},
		{name: "station lat -91", want: "outside [-90°, 90°]", st: func(st *stations.Station) { st.LatDeg = -91 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ev, sts := testEvent, append([]stations.Station(nil), good...)
			if c.ev != nil {
				c.ev(&ev)
			} else {
				c.st(&sts[0])
			}
			_, err := s.Run(Scenario{Name: c.name, Event: ev, Stations: sts})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("got %v, want an error naming %q", err, c.want)
			}
			if c.ev != nil {
				if err := s.CheckEvent(ev); err == nil {
					t.Error("CheckEvent accepted the event")
				}
			}
		})
	}
	if _, err := s.Run(Scenario{Name: "good", Event: testEvent, Stations: good}); err != nil {
		t.Errorf("the valid event and station: %v", err)
	}
}

// The .sem text of a seismogram: fixed bytes for special values, and
// byte for byte what one formatted line per sample gives on a record
// long enough to pass through the buffer many times.
func TestWriteSemBytes(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	sg := &solver.Seismogram{Dt: 0.25,
		X: []float32{0, 1.5, -2.5e-7, 3e12},
		Y: []float32{negZero, 1e-30, 123456.79, -1},
		Z: []float32{7, -0.125, 6.02e23, 1e-45},
	}
	want := "      0.2500   0.000000e+00  -0.000000e+00   7.000000e+00\n" +
		"      0.5000   1.500000e+00   1.000000e-30  -1.250000e-01\n" +
		"      0.7500  -2.500000e-07   1.234568e+05   6.020000e+23\n" +
		"      1.0000   3.000000e+12  -1.000000e+00   1.401298e-45\n"
	var b bytes.Buffer
	if err := writeSem(&b, sg); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("got\n%s\nwant\n%s", b.String(), want)
	}

	long := &solver.Seismogram{Dt: 0.01}
	var line strings.Builder
	for i := 0; i < 500; i++ {
		x, y, z := float32(i)*1.1e-9, -float32(i)*3.3, float32(math.Sin(float64(i)))
		long.X, long.Y, long.Z = append(long.X, x), append(long.Y, y), append(long.Z, z)
		fmt.Fprintf(&line, "%12.4f %14.6e %14.6e %14.6e\n", float64(i+1)*long.Dt, x, y, z)
	}
	b.Reset()
	if err := writeSem(&b, long); err != nil {
		t.Fatal(err)
	}
	if b.String() != line.String() {
		t.Error("a long record's bytes differ from one formatted line per sample")
	}

	// Streamed chunks written at their offsets, cut unevenly, give the
	// one-shot bytes of a record that starts with the special values.
	both := &solver.Seismogram{Dt: 0.01,
		X: append(append([]float32(nil), sg.X...), long.X...),
		Y: append(append([]float32(nil), sg.Y...), long.Y...),
		Z: append(append([]float32(nil), sg.Z...), long.Z...),
	}
	var whole, parts bytes.Buffer
	if err := writeSem(&whole, both); err != nil {
		t.Fatal(err)
	}
	if err := writeChunks(&parts, both, 0, 1, 7, len(both.X)); err != nil {
		t.Fatal(err)
	}
	if parts.String() != whole.String() {
		t.Error("the streamed chunks' bytes differ from the one-shot record's")
	}
}

// writeChunks writes rec in pieces cut at the given sample offsets,
// each at its offset and flushed, as specfem ctl writes streamed chunks.
func writeChunks(w io.Writer, rec *solver.Seismogram, cuts ...int) error {
	bw := bufio.NewWriter(w)
	for k := 1; k < len(cuts); k++ {
		a, b := cuts[k-1], cuts[k]
		if err := WriteSemRows(bw, a, rec.Dt, rec.X[a:b], rec.Y[a:b], rec.Z[a:b]); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// A write error part-way through a record is returned, not dropped:
// the caller never mistakes a truncated file for a written one.
func TestWriteSemReportsWriteErrors(t *testing.T) {
	sg := &solver.Seismogram{Dt: 0.01, X: make([]float32, 500), Y: make([]float32, 500), Z: make([]float32, 500)}
	for _, n := range []int{0, 100, 5000, 28999} {
		if err := writeSem(&failAfter{n: n}, sg); err == nil || !strings.Contains(err.Error(), "disk full") {
			t.Errorf("failing after %d bytes: error %v, want disk full", n, err)
		}
		if err := writeChunks(&failAfter{n: n}, sg, 0, 1, 7, 500); err == nil || !strings.Contains(err.Error(), "disk full") {
			t.Errorf("chunks failing after %d bytes: error %v, want disk full", n, err)
		}
	}
}
