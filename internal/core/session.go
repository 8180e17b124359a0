package core

import (
	"fmt"
	"math"
	"os"
	"time"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/meshio"
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

// Session is a built, handed-over mesh ready to run scenarios. Building
// the mesh (meshfem + the merged or legacy handoff) is the expensive,
// event-independent half of a simulation; a Session pays it once and
// amortizes it over any number of Run/RunBatch calls. Sessions are the
// natural host of ensemble batching: RunBatch propagates S independent
// wavefields through ONE time loop over the shared mesh, one per
// scenario.
type Session struct {
	cfg        Config
	globe      *meshfem.Globe
	locals     []*mesh.Local
	plans      []*mesh.HaloPlan
	mesherTime time.Duration
	io         meshio.Stats
	load       mesh.LoadStats
	resolution mesh.ResolutionStats
}

// NewSession builds the mesh described by cfg (ignoring its Event and
// Stations, which Run/RunBatch scenarios supply) and performs the
// configured mesher-to-solver handoff.
func NewSession(cfg Config) (*Session, error) {
	if cfg.Model == nil {
		cfg.Model = earthmodel.NewPREM()
	}
	s := &Session{cfg: cfg}

	t0 := time.Now()
	globe, err := meshfem.Build(meshfem.Config{
		NexXi:            cfg.NexXi,
		NProcXi:          cfg.NProcXi,
		Model:            cfg.Model,
		Doublings:        cfg.Doublings,
		AutoDoubling:     cfg.AutoDoubling,
		TwoPassMaterials: cfg.TwoPassMesher,
	})
	if err != nil {
		return nil, err
	}
	s.mesherTime = time.Since(t0)
	s.globe = globe
	s.load = mesh.ComputeLoadStats(globe.Locals)
	s.resolution = mesh.ComputeResolutionStats(globe.Locals, globe.ShortestPeriod)

	locals, plans := globe.Locals, globe.Plans
	if cfg.LegacyIO {
		dir := cfg.LegacyDir
		if dir == "" {
			var err error
			dir, err = os.MkdirTemp("", "specglobe-db-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
		}
		st, err := meshio.WriteAllRanks(dir, locals, plans)
		if err != nil {
			return nil, fmt.Errorf("core: legacy write: %w", err)
		}
		locals, plans, err = meshio.ReadAllRanks(dir, len(locals))
		if err != nil {
			return nil, fmt.Errorf("core: legacy read: %w", err)
		}
		s.io = st
	} else {
		s.io = meshio.MergedHandoff(locals)
	}
	s.locals, s.plans = locals, plans
	return s, nil
}

// Globe exposes the built mesh (read-only by convention).
func (s *Session) Globe() *meshfem.Globe { return s.globe }

// Load exposes the element-count load statistics of the partition.
func (s *Session) Load() mesh.LoadStats { return s.load }

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

// solve runs one batched solver invocation over the scenarios: source i
// drives ensemble field i, and the receiver set is the by-name union of
// all scenario stations (each receiver records every field). Returns
// the raw solver result, the located stations, the worst station
// residual and the solver wall time.
func (s *Session) solve(scs []Scenario, chunkSamples int, onChunk func(solver.Chunk)) (*solver.Result, []stations.Located, float64, time.Duration, error) {
	cfg := &s.cfg
	srcs := make([]solver.Source, len(scs))
	for i := range scs {
		src, err := s.locateSource(scs[i].Event, i)
		if err != nil {
			return nil, nil, 0, 0, err
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
					return nil, nil, 0, 0, fmt.Errorf("core: station %q appears with different definitions across scenarios", st.Name)
				}
				continue
			}
			seen[st.Name] = st
			if err := ValidateStation(st); err != nil {
				return nil, nil, 0, 0, err
			}
			l, err := stations.LocateFast(s.globe, st, cfg.SnapStations)
			if err != nil {
				return nil, nil, 0, 0, err
			}
			located = append(located, l)
		}
	}
	stErr := stations.MaxLocationError(located)

	steps, err := s.steps()
	if err != nil {
		return nil, nil, 0, 0, err
	}

	t1 := time.Now()
	res, err := solver.Run(&solver.Simulation{
		Locals:    s.locals,
		Plans:     s.plans,
		Model:     cfg.Model,
		Sources:   srcs,
		Receivers: stations.ToReceivers(located),
		Opts: solver.Options{
			Dt:          cfg.Dt,
			Steps:       steps,
			Attenuation: cfg.Attenuation,
			Rotation:    cfg.Rotation,
			Gravity:     cfg.Gravity,
			OceanLoad:   cfg.OceanLoad,
			Kernel:      cfg.Kernel,
			Workers:     cfg.Workers,
			RecordEvery: cfg.RecordEvery,
			EnergyEvery: cfg.EnergyEvery,
			LTS:         cfg.LTS,
			LTSMaxRate:  cfg.LTSMaxRate,

			OnChunk:            onChunk,
			StreamChunkSamples: chunkSamples,
		},
	})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return res, located, stErr, time.Since(t1), nil
}

// report assembles a Report around a solver result for one scenario.
func (s *Session) report(sc Scenario, res *solver.Result, stErr float64, solverTime time.Duration) *Report {
	cfg := s.cfg
	cfg.Event = sc.Event
	cfg.Stations = sc.Stations
	return &Report{
		Config:         cfg,
		Globe:          s.globe,
		Result:         res,
		MesherTime:     s.mesherTime,
		SolverTime:     solverTime,
		IO:             s.io,
		ShortestPeriod: s.globe.ShortestPeriod,
		Load:           s.load,
		Resolution:     s.resolution,
		StationErrors:  stErr,
	}
}

// Run executes one scenario on the session's mesh. The wavefield state
// is allocated fresh inside the solver, so sequential Run calls are
// independent: each is bit-identical to a full core.Run with the same
// configuration.
func (s *Session) Run(sc Scenario) (*Report, error) {
	res, _, stErr, solverTime, err := s.solve([]Scenario{sc}, 0, nil)
	if err != nil {
		return nil, err
	}
	return s.report(sc, res, stErr, solverTime), nil
}

// RunBatch executes all scenarios as ONE ensemble-batched solver run:
// scenario i's source drives wavefield i, every element sweep advances
// all wavefields against one traversal of the shared mesh data, and
// every halo message carries all fields. Each returned Report is the
// scenario's view of the shared run: Result.Seismograms holds only that
// scenario's stations recorded from its own wavefield (bit-identical to
// a single-source run of the same scenario), while Result.BySource and
// the performance counters describe the whole batched run and are
// shared by all reports.
func (s *Session) RunBatch(scs []Scenario) ([]*Report, error) {
	return s.RunBatchStream(scs, 0, nil)
}

// StreamChunk is one streamed increment of a scenario's seismogram —
// see solver.Chunk. Field identifies the scenario (ensemble wavefield)
// it belongs to.
type StreamChunk = solver.Chunk

// RunBatchStream is RunBatch with incremental delivery: when onChunk is
// non-nil, each scenario's stations stream their samples in append-only
// chunks of chunkSamples as the integrator advances (final short chunk
// carries Last), instead of only materializing in the Reports at the
// end. A chunk is delivered for scenario ch.Field only if its station
// belongs to that scenario's own station list — the receiver union
// records every wavefield, but a scenario never sees another
// scenario's stations. Concatenated chunks are bit-identical to the
// Report seismograms, which are still returned. onChunk is called
// concurrently from rank goroutines and must be safe for concurrent
// use.
func (s *Session) RunBatchStream(scs []Scenario, chunkSamples int, onChunk func(StreamChunk)) ([]*Report, error) {
	if len(scs) == 0 {
		return nil, fmt.Errorf("core: RunBatch needs at least one scenario")
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
	res, _, stErr, solverTime, err := s.solve(scs, chunkSamples, cb)
	if err != nil {
		return nil, err
	}
	reps := make([]*Report, len(scs))
	for i, sc := range scs {
		view := *res
		view.Seismograms = map[string]*solver.Seismogram{}
		for _, st := range sc.Stations {
			if sg, ok := res.BySource[i][st.Name]; ok {
				view.Seismograms[st.Name] = sg
			}
		}
		reps[i] = s.report(sc, &view, stErr, solverTime)
	}
	return reps, nil
}
