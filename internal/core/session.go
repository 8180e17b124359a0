package core

import (
	"fmt"
	"math"
	"time"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/solver"
	"specglobe/internal/stations"
)

// Scenario is one event plus the stations that should record it — the
// unit of work a Session runs. Scenarios on the same Session share the
// mesh; they differ only in source position/mechanism and station set.
type Scenario struct {
	Name     string
	Event    Event
	Stations []stations.Station
}

// Session is a built mesh ready to run scenarios. Building the mesh is
// the expensive, event-independent half of a simulation; a Session pays
// it once and amortizes it over any number of RunBatchStream calls.
// Sessions are the natural host of ensemble batching: RunBatchStream
// propagates S independent wavefields through ONE time loop over the
// shared mesh, one per scenario.
type Session struct {
	cfg        Config
	globe      *meshfem.Globe
	mesherTime time.Duration
	load       mesh.LoadStats
}

// NewSession builds the mesh described by cfg (ignoring its Event and
// Stations, which the scenarios supply). Mesher and solver are
// one program (section 4.1): the solver runs on the built mesh in
// memory.
func NewSession(cfg Config) (*Session, error) {
	if cfg.Model == nil {
		cfg.Model = earthmodel.NewPREM()
	}
	t0 := time.Now()
	globe, err := meshfem.Build(cfg.MesherConfig())
	if err != nil {
		return nil, err
	}
	return &Session{
		cfg:        cfg,
		globe:      globe,
		mesherTime: time.Since(t0),
		load:       mesh.ComputeLoadStats(globe.Locals),
	}, nil
}

// Globe exposes the built mesh (read-only by convention).
func (s *Session) Globe() *meshfem.Globe { return s.globe }

// locateSource turns a valid event into a solver source driving the
// given ensemble field.
func (s *Session) locateSource(ev Event, field int) (solver.Source, error) {
	if err := ev.Validate(); err != nil {
		return solver.Source{}, err
	}
	srcLoc, err := s.globe.LocateLatLonDepth(ev.LatDeg, ev.LonDeg, ev.DepthM)
	if err != nil {
		return solver.Source{}, fmt.Errorf("core: locating event: %w", err)
	}
	if srcLoc.Kind == earthmodel.RegionOuterCore {
		return solver.Source{}, fmt.Errorf("core: event at depth %g m falls in the fluid outer core", ev.DepthM)
	}
	hd := ev.HalfDurationSec
	if hd == 0 {
		hd = 10
	}
	return solver.Source{
		Rank: srcLoc.Rank, Kind: srcLoc.Kind, Elem: srcLoc.Elem, Ref: srcLoc.Ref,
		Field:        field,
		MomentTensor: ev.CartesianMomentTensor(),
		STF:          solver.GaussianSTF(hd, 2.5*hd),
	}, nil
}

// CheckEvent verifies that an event is valid (Event.Validate) and
// locates inside a solid region of the session's mesh without running
// anything — the per-job validation
// a batching service needs so one bad event fails its own job instead
// of the whole ensemble.
func (s *Session) CheckEvent(ev Event) error {
	_, err := s.locateSource(ev, 0)
	return err
}

// steps resolves the step count from cfg (Steps wins over
// RecordSeconds).
func (s *Session) steps() (int, error) {
	cfg := &s.cfg
	if cfg.Steps > 0 {
		return cfg.Steps, nil
	}
	dt := cfg.Dt
	if dt <= 0 {
		dt = mesh.StableDt(s.globe.Locals, mesh.Courant)
	}
	if cfg.RecordSeconds <= 0 {
		return 0, fmt.Errorf("core: need Steps or RecordSeconds")
	}
	return int(math.Ceil(cfg.RecordSeconds / dt)), nil
}

// StreamChunk is one streamed increment of a scenario's seismogram —
// see solver.Chunk. Field identifies the scenario (ensemble wavefield)
// it belongs to.
type StreamChunk = solver.Chunk

// RunBatchStream is the session's one run method. It runs all
// scenarios as ONE ensemble-batched solver run: scenario i's source
// drives wavefield i, every element sweep advances all wavefields
// against one traversal of the shared mesh data, every halo message
// carries all fields, and the receiver set is the by-name union of the
// scenarios' stations (each receiver records every wavefield). The
// wavefield state is allocated fresh inside the solver, so sequential
// calls are independent.
//
// Each returned Report is the scenario's view of the shared run:
// Result.Seismograms holds only that scenario's stations recorded from
// its own wavefield (bit-identical to a single-scenario run), while
// Result.BySource and the performance counters describe the whole
// batched run and are shared by all reports.
//
// When onChunk is non-nil, each scenario's stations also stream their
// samples in append-only chunks of chunkSamples as the integrator
// advances (the final short chunk carries Last). A chunk is delivered
// for scenario ch.Field only if its station belongs to that scenario's
// own station list. Concatenated chunks are bit-identical to the Report
// seismograms. onChunk is called concurrently from rank goroutines and
// must be safe for concurrent use.
func (s *Session) RunBatchStream(scs []Scenario, chunkSamples int, onChunk func(StreamChunk)) ([]*Report, error) {
	if len(scs) == 0 {
		return nil, fmt.Errorf("core: RunBatchStream needs at least one scenario")
	}
	cfg := &s.cfg
	srcs := make([]solver.Source, len(scs))
	for i := range scs {
		src, err := s.locateSource(scs[i].Event, i)
		if err != nil {
			return nil, err
		}
		srcs[i] = src
	}

	// Union of stations across scenarios, first occurrence wins; a name
	// reused with different coordinates is ambiguous.
	var located []stations.Located
	seen := map[string]stations.Station{}
	for _, sc := range scs {
		for _, st := range sc.Stations {
			if prev, ok := seen[st.Name]; ok {
				if prev != st {
					return nil, fmt.Errorf("core: station %q appears with different definitions across scenarios", st.Name)
				}
				continue
			}
			seen[st.Name] = st
			if err := ValidateStation(st); err != nil {
				return nil, err
			}
			l, err := stations.LocateFast(s.globe, st, cfg.SnapStations)
			if err != nil {
				return nil, err
			}
			located = append(located, l)
		}
	}

	steps, err := s.steps()
	if err != nil {
		return nil, err
	}

	cb := onChunk
	if onChunk != nil {
		// Per-scenario station-name filters.
		sets := make([]map[string]bool, len(scs))
		for i, sc := range scs {
			sets[i] = make(map[string]bool, len(sc.Stations))
			for _, st := range sc.Stations {
				sets[i][st.Name] = true
			}
		}
		cb = func(ch solver.Chunk) {
			if ch.Field < len(sets) && sets[ch.Field][ch.Name] {
				onChunk(ch)
			}
		}
	}

	opts := cfg.SolverOptions(steps)
	opts.OnChunk, opts.StreamChunkSamples = cb, chunkSamples
	t1 := time.Now()
	res, err := solver.Run(&solver.Simulation{
		Locals:    s.globe.Locals,
		Plans:     s.globe.Plans,
		Model:     cfg.Model,
		Sources:   srcs,
		Receivers: stations.ToReceivers(located),
		Opts:      opts,
	})
	if err != nil {
		return nil, err
	}
	solverTime := time.Since(t1)
	stErr := stations.MaxLocationError(located)

	reps := make([]*Report, len(scs))
	for i, sc := range scs {
		view := *res
		view.Seismograms = map[string]*solver.Seismogram{}
		for _, st := range sc.Stations {
			if sg, ok := res.BySource[i][st.Name]; ok {
				view.Seismograms[st.Name] = sg
			}
		}
		rcfg := s.cfg
		rcfg.Event, rcfg.Stations = sc.Event, sc.Stations
		reps[i] = &Report{
			Config:         rcfg,
			Globe:          s.globe,
			Result:         &view,
			MesherTime:     s.mesherTime,
			SolverTime:     solverTime,
			ShortestPeriod: s.globe.ShortestPeriod,
			Load:           s.load,
			StationErrors:  stErr,
		}
	}
	return reps, nil
}
