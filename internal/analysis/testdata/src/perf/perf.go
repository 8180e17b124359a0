// Package perf is a fixture double mirroring the profiler API shape of
// specglobe/internal/perf; the analyzers match it by package base name.
package perf

// Phase labels one accounted section of the time step.
type Phase int

// Phases of the fixture model.
const (
	PhaseForces Phase = iota
	PhaseUpdate
	PhaseComm
)

// Work is what one beat did: flops and bytes.
type Work struct{ Flops, Bytes int64 }

// Beat names one beat of a step and its phase.
type Beat struct {
	Name  string
	Phase Phase
}

// Profiler accumulates per-phase time, flops and bytes.
type Profiler struct{}

// Start opens the run's wall-time window.
func (p *Profiler) Start() {}

// Stop closes the run's wall-time window.
func (p *Profiler) Stop() {}

// Mark opens a step's first beat.
func (p *Profiler) Mark() {}

// Charge closes beat b and charges w to its phase.
func (p *Profiler) Charge(b *Beat, w Work) {}

// Add charges an externally measured duration to ph.
func (p *Profiler) Add(ph Phase, d int64) {}
