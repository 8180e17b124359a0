package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specglobe/internal/solver"
	"specglobe/internal/stations"
)

// secondEvent is a shallower event at a different epicenter so two
// scenarios genuinely differ in source position and mechanism.
var secondEvent = Event{
	Name: "second-event", LatDeg: 12.0, LonDeg: 40.0, DepthM: 80e3,
	Mrr: -0.4e20, Mtt: 1e20, Mpp: -0.6e20, Mtp: 0.2e20,
	HalfDurationSec: 15,
}

// nearStation is a station a few degrees from ev's epicenter: the body
// waves reach it within the handful of steps these tests run, so the
// signal guard of sameSeismos rests on physical motion. Teleseismic
// stations stay exactly zero over so few steps (the solver flushes the
// sub-1e-24 numerical precursor that used to satisfy the guard).
func nearStation(name string, ev Event) stations.Station {
	return stations.Station{Name: name, Network: "XX", LatDeg: ev.LatDeg + 3, LonDeg: ev.LonDeg + 2}
}

// runOne runs a single scenario on a session.
func runOne(s *Session, sc Scenario) (*Report, error) {
	reps, err := s.RunBatchStream([]Scenario{sc}, 0, nil)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// sameSeismos requires bit-identical (==) seismograms per station, and
// signal on at least one of them.
func sameSeismos(t *testing.T, tag string, want, got map[string]*solver.Seismogram) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d seismograms", tag, len(want), len(got))
	}
	signal := false
	for name, w := range want {
		g := got[name]
		if g == nil {
			t.Fatalf("%s: station %s missing", tag, name)
		}
		if len(w.X) != len(g.X) {
			t.Fatalf("%s/%s: %d vs %d samples", tag, name, len(w.X), len(g.X))
		}
		for i := range w.X {
			if w.X[i] != g.X[i] || w.Y[i] != g.Y[i] || w.Z[i] != g.Z[i] {
				t.Fatalf("%s/%s: sample %d differs: (%g,%g,%g) vs (%g,%g,%g)",
					tag, name, i, w.X[i], w.Y[i], w.Z[i], g.X[i], g.Y[i], g.Z[i])
			}
			if w.X[i] != 0 || w.Y[i] != 0 || w.Z[i] != 0 {
				signal = true
			}
		}
	}
	if !signal {
		t.Fatalf("%s: no station carries signal — the identity check is vacuous", tag)
	}
}

// Session reuse must leak no wavefield state across runs: two
// sequential single-scenario runs with different sources produce
// seismograms bit-identical to two fresh core.Run calls. Both the
// plain and the doubled globe (whose mesh carries the multi-rate
// doubling structure) are covered.
func TestSessionReuseMatchesFreshRuns(t *testing.T) {
	cases := []struct {
		name      string
		doublings []float64
	}{
		{"plain-globe", nil},
		{"doubled-globe", []float64{5200e3, 3000e3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{
				NexXi: 4, NProcXi: 1,
				Model:     smallModel(),
				Doublings: c.doublings,
				Steps:     20,
				Stations: append(stations.ReferenceStations()[:2],
					nearStation("NEARA", testEvent), nearStation("NEARB", secondEvent)),
			}
			if c.doublings != nil {
				cfg.NexXi = 8
				cfg.Steps = 10
			}
			s, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sts := cfg.Stations
			rep1, err := runOne(s, Scenario{Name: "a", Event: testEvent, Stations: sts})
			if err != nil {
				t.Fatal(err)
			}
			rep2, err := runOne(s, Scenario{Name: "b", Event: secondEvent, Stations: sts})
			if err != nil {
				t.Fatal(err)
			}

			cfg1 := cfg
			cfg1.Event = testEvent
			fresh1, err := Run(cfg1)
			if err != nil {
				t.Fatal(err)
			}
			cfg2 := cfg
			cfg2.Event = secondEvent
			fresh2, err := Run(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			sameSeismos(t, "first-run", fresh1.Result.Seismograms, rep1.Result.Seismograms)
			sameSeismos(t, "second-run", fresh2.Result.Seismograms, rep2.Result.Seismograms)
			if rep2.MesherTime != rep1.MesherTime {
				t.Error("session reports should share the one-time mesher cost")
			}
		})
	}
}

// RunBatchStream propagates each scenario's source through its own ensemble
// field of ONE solver run; each scenario's view must be bit-identical
// to running it alone, and stations not in a scenario's set must not
// appear in its view.
func TestSessionRunBatchMatchesSingleRuns(t *testing.T) {
	cfg := Config{
		NexXi: 4, NProcXi: 1,
		Model: smallModel(),
		Steps: 20,
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := stations.ReferenceStations()[:3]
	scs := []Scenario{
		{Name: "a", Event: testEvent, Stations: append(all[:2:2], nearStation("NEARA", testEvent))},
		{Name: "b", Event: secondEvent, Stations: append(all[1:], nearStation("NEARB", secondEvent))},
	}
	reps, err := s.RunBatchStream(scs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("%d reports, want 2", len(reps))
	}
	if reps[0].Result.NumFields != 2 {
		t.Errorf("NumFields = %d, want 2", reps[0].Result.NumFields)
	}
	for i, sc := range scs {
		single, err := runOne(s, sc)
		if err != nil {
			t.Fatal(err)
		}
		sameSeismos(t, "batch-"+sc.Name, single.Result.Seismograms, reps[i].Result.Seismograms)
		if len(reps[i].Result.Seismograms) != len(sc.Stations) {
			t.Errorf("scenario %s: %d seismograms, want %d",
				sc.Name, len(reps[i].Result.Seismograms), len(sc.Stations))
		}
	}
	// Station outside scenario a's set must not leak into its view.
	if _, ok := reps[0].Result.Seismograms[all[2].Name]; ok {
		t.Errorf("station %s leaked into scenario a's view", all[2].Name)
	}
}

// Batched output is keyed by (source, station): one source_NNN
// subdirectory per field, with each subdirectory's files matching a
// flat single-source write sample for sample. Single-source results
// must keep the flat layout.
func TestWriteSeismogramsBatch(t *testing.T) {
	cfg := Config{
		NexXi: 4, NProcXi: 1,
		Model: smallModel(),
		Steps: 10,
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sts := stations.ReferenceStations()[:2]
	scs := []Scenario{
		{Name: "a", Event: testEvent, Stations: sts},
		{Name: "b", Event: secondEvent, Stations: sts},
	}
	reps, err := s.RunBatchStream(scs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The batched result (both fields) goes under per-source subdirs.
	dir := t.TempDir()
	if err := WriteSeismograms(dir, reps[0].Result); err != nil {
		t.Fatal(err)
	}
	for fi := range scs {
		sub := filepath.Join(dir, "source_00"+string(rune('0'+fi)))
		for _, st := range sts {
			data, err := os.ReadFile(filepath.Join(sub, st.Name+".sem"))
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			if len(lines) != cfg.Steps {
				t.Errorf("source %d station %s: %d samples, want %d", fi, st.Name, len(lines), cfg.Steps)
			}
		}
	}
	// Each subdirectory matches the flat write of its single-source run.
	for fi, sc := range scs {
		single, err := runOne(s, sc)
		if err != nil {
			t.Fatal(err)
		}
		flat := t.TempDir()
		if err := WriteSeismograms(flat, single.Result); err != nil {
			t.Fatal(err)
		}
		for _, st := range sts {
			want, err := os.ReadFile(filepath.Join(flat, st.Name+".sem"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, "source_00"+string(rune('0'+fi)), st.Name+".sem"))
			if err != nil {
				t.Fatal(err)
			}
			if string(want) != string(got) {
				t.Errorf("source %d station %s: batched file differs from single-source write", fi, st.Name)
			}
		}
		// Single-source results stay flat: no source_000 subdirectory.
		if _, err := os.Stat(filepath.Join(flat, "source_000")); !os.IsNotExist(err) {
			t.Error("single-source write created a per-source subdirectory")
		}
	}
}
