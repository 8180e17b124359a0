package service

import (
	"fmt"
	"math"
	"strings"

	"specglobe/internal/core"
	"specglobe/internal/earthmodel"
	"specglobe/internal/solver"
	"specglobe/internal/stations"
)

// JobSpec is one scenario job as submitted by a client: which mesh to
// run on (model/resolution/schedule/physics — the compatibility key)
// and the per-wavefield payload (event, stations). Field names match
// the wire protocol.
type JobSpec struct {
	// Name labels the job in status output (optional).
	Name string `json:"name,omitempty"`
	// Model names the Earth model: "prem", "prem_noocean" or
	// "earthlike" (the homogeneous Earth-sized test model).
	Model string `json:"model"`
	// NexXi/NProcXi set the mesh resolution and partition, as in
	// core.Config.
	NexXi   int `json:"nex"`
	NProcXi int `json:"nproc,omitempty"`
	// Steps is the number of time steps (required; batching needs every
	// job of an ensemble to march the same loop).
	Steps int `json:"steps"`
	// Dt overrides the automatic stable time step when positive.
	Dt float64 `json:"dt,omitempty"`
	// Doublings lists mesh-doubling radii in meters, descending.
	Doublings []float64 `json:"doublings,omitempty"`
	// RecordEvery decimates seismogram recording (default 1).
	RecordEvery int `json:"record_every,omitempty"`
	// Physics switches.
	Attenuation bool `json:"attenuation,omitempty"`
	Rotation    bool `json:"rotation,omitempty"`
	Gravity     bool `json:"gravity,omitempty"`
	OceanLoad   bool `json:"ocean_load,omitempty"`
	// Kernel selects the force kernel: "vec4" (default: AVX2 assembly
	// where the host has it, the same bits from Go elsewhere) or
	// "scalar"; any other name is a bad request.
	Kernel string `json:"kernel,omitempty"`
	// Event is the source (required).
	Event *EventSpec `json:"event"`
	// Stations to record (required, at least one).
	Stations []StationSpec `json:"stations"`
}

// EventSpec is the wire form of a CMT source.
type EventSpec struct {
	LatDeg          float64 `json:"lat"`
	LonDeg          float64 `json:"lon"`
	DepthM          float64 `json:"depth_m"`
	Mrr             float64 `json:"mrr"`
	Mtt             float64 `json:"mtt"`
	Mpp             float64 `json:"mpp"`
	Mrt             float64 `json:"mrt,omitempty"`
	Mrp             float64 `json:"mrp,omitempty"`
	Mtp             float64 `json:"mtp,omitempty"`
	HalfDurationSec float64 `json:"half_duration_s,omitempty"`
}

// StationSpec names a station: either a reference-catalog name alone
// (coordinates looked up, unknown names rejected) or a name with
// explicit coordinates.
type StationSpec struct {
	Name   string   `json:"name"`
	LatDeg *float64 `json:"lat,omitempty"`
	LonDeg *float64 `json:"lon,omitempty"`
	DepthM float64  `json:"depth_m,omitempty"`
}

// CompatKey is everything two jobs must share to run in one ensemble
// batch: the solver marches all wavefields of a batch through one time
// loop over one mesh, so mesh shape, step count, cadence, physics and
// integrator must agree exactly. It doubles as the session-cache key.
type CompatKey struct {
	Model       string
	NexXi       int
	NProcXi     int
	Doublings   string // comma-joined radii, preserving order
	Steps       int
	Dt          float64
	RecordEvery int
	Attenuation bool
	Rotation    bool
	Gravity     bool
	OceanLoad   bool
	Kernel      solver.Kernel
}

// String renders the key compactly for logs and wire status.
func (k CompatKey) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/nex%d/p%d/steps%d", k.Model, k.NexXi, k.NProcXi, k.Steps)
	if k.Doublings != "" {
		fmt.Fprintf(&b, "/dbl[%s]", k.Doublings)
	}
	if k.Dt > 0 {
		fmt.Fprintf(&b, "/dt%g", k.Dt)
	}
	if k.RecordEvery > 1 {
		fmt.Fprintf(&b, "/rec%d", k.RecordEvery)
	}
	for _, sw := range []struct {
		on   bool
		name string
	}{{k.Attenuation, "att"}, {k.Rotation, "rot"}, {k.Gravity, "grav"}, {k.OceanLoad, "ocean"}} {
		if sw.on {
			b.WriteString("/" + sw.name)
		}
	}
	fmt.Fprintf(&b, "/%s", k.Kernel)
	return b.String()
}

// job is a validated JobSpec: resolved model-independent pieces plus
// the compatibility key.
type resolvedJob struct {
	spec     JobSpec
	key      CompatKey
	event    core.Event
	stations []stations.Station
}

// resolveSpec validates a JobSpec and resolves it into a typed job.
// Every failure is a *Error with the code the fault-injection contract
// names.
func resolveSpec(spec JobSpec) (*resolvedJob, error) {
	if spec.Steps <= 0 {
		return nil, Errf(CodeBadRequest, "job %q: steps must be positive (got %d)", spec.Name, spec.Steps)
	}
	// A NaN passes every comparison, and its CompatKey never equals
	// itself: the job would queue and never be batched.
	if spec.Dt < 0 || math.IsNaN(spec.Dt) || math.IsInf(spec.Dt, 0) {
		return nil, Errf(CodeBadRequest, "job %q: dt must be finite and not negative (got %g)", spec.Name, spec.Dt)
	}
	if spec.NexXi <= 0 {
		return nil, Errf(CodeBadRequest, "job %q: nex must be positive", spec.Name)
	}
	if spec.NProcXi < 0 || spec.RecordEvery < 0 {
		return nil, Errf(CodeBadRequest, "job %q: nproc and record_every must not be negative (got %d, %d; 0 selects 1)",
			spec.Name, spec.NProcXi, spec.RecordEvery)
	}
	spec.NProcXi = max(spec.NProcXi, 1)
	spec.RecordEvery = max(spec.RecordEvery, 1)
	if spec.Event == nil {
		return nil, Errf(CodeBadRequest, "job %q: event is required", spec.Name)
	}
	if len(spec.Stations) == 0 {
		return nil, Errf(CodeBadRequest, "job %q: at least one station is required", spec.Name)
	}
	if _, err := modelFor(spec.Model); err != nil {
		return nil, err
	}
	kern, err := solver.ParseKernel(spec.Kernel)
	if err != nil {
		return nil, Errf(CodeBadRequest, "job %q: %v", spec.Name, err)
	}
	sts, err := resolveStations(spec.Stations)
	if err != nil {
		return nil, err
	}

	dbl := make([]string, len(spec.Doublings))
	for i, r := range spec.Doublings {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, Errf(CodeBadRequest, "job %q: doubling radius %d is not finite (got %g)", spec.Name, i, r)
		}
		dbl[i] = fmt.Sprintf("%g", r)
	}
	ev := spec.Event
	event := core.Event{
		Name:   spec.Name,
		LatDeg: ev.LatDeg, LonDeg: ev.LonDeg, DepthM: ev.DepthM,
		Mrr: ev.Mrr, Mtt: ev.Mtt, Mpp: ev.Mpp,
		Mrt: ev.Mrt, Mrp: ev.Mrp, Mtp: ev.Mtp,
		HalfDurationSec: ev.HalfDurationSec,
	}
	if err := event.Validate(); err != nil {
		return nil, Errf(CodeBadRequest, "job %q: %v", spec.Name, err)
	}
	return &resolvedJob{
		spec: spec,
		key: CompatKey{
			Model:       spec.Model,
			NexXi:       spec.NexXi,
			NProcXi:     spec.NProcXi,
			Doublings:   strings.Join(dbl, ","),
			Steps:       spec.Steps,
			Dt:          spec.Dt,
			RecordEvery: spec.RecordEvery,
			Attenuation: spec.Attenuation,
			Rotation:    spec.Rotation,
			Gravity:     spec.Gravity,
			OceanLoad:   spec.OceanLoad,
			Kernel:      kern,
		},
		event:    event,
		stations: sts,
	}, nil
}

// DirectConfig resolves a JobSpec into the exact one-shot core.Config
// the daemon runs it under — the reference a client (or the specfemd
// selftest) uses to verify streamed output bit-for-bit against a
// direct core.Run.
func DirectConfig(spec JobSpec, workers int) (core.Config, error) {
	res, err := resolveSpec(spec)
	if err != nil {
		return core.Config{}, err
	}
	cfg, err := configFor(res.key, res.spec, workers)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Event = res.event
	cfg.Stations = res.stations
	return cfg, nil
}

// modelFor resolves a model name (earthmodel.ByName) as a service
// error.
func modelFor(name string) (earthmodel.Model, error) {
	m, err := earthmodel.ByName(name)
	if err != nil {
		return nil, Errf(CodeUnknownModel, "%v", err)
	}
	return m, nil
}

// resolveStations turns StationSpecs into located station definitions:
// explicit coordinates win, bare names must exist in the reference
// catalog.
func resolveStations(specs []StationSpec) ([]stations.Station, error) {
	catalog := map[string]stations.Station{}
	for _, st := range stations.ReferenceStations() {
		catalog[st.Name] = st
	}
	out := make([]stations.Station, 0, len(specs))
	for _, sp := range specs {
		if sp.Name == "" {
			return nil, Errf(CodeBadRequest, "station with empty name")
		}
		if sp.LatDeg != nil && sp.LonDeg != nil {
			st := stations.Station{
				Name: sp.Name, Network: "XX",
				LatDeg: *sp.LatDeg, LonDeg: *sp.LonDeg, DepthM: sp.DepthM,
			}
			if err := core.ValidateStation(st); err != nil {
				return nil, Errf(CodeBadRequest, "%v", err)
			}
			out = append(out, st)
			continue
		}
		ref, ok := catalog[sp.Name]
		if !ok {
			return nil, Errf(CodeUnknownStation, "unknown station %q: not in the reference catalog and no explicit coordinates", sp.Name)
		}
		out = append(out, ref)
	}
	return out, nil
}

// configFor builds the session (mesh) configuration of a key. Workers
// is daemon-level: it caps the solver's concurrent compute, not the
// ensemble.
func configFor(key CompatKey, spec JobSpec, workers int) (core.Config, error) {
	model, err := modelFor(key.Model)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		NexXi:       key.NexXi,
		NProcXi:     key.NProcXi,
		Model:       model,
		Steps:       key.Steps,
		Dt:          key.Dt,
		Doublings:   spec.Doublings,
		Attenuation: key.Attenuation,
		Rotation:    key.Rotation,
		Gravity:     key.Gravity,
		OceanLoad:   key.OceanLoad,
		Kernel:      key.Kernel,
		Workers:     workers,
		RecordEvery: key.RecordEvery,
	}, nil
}
