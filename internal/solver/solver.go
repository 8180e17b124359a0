// Package solver implements the SPECFEM3D part of the package: the
// spectral-element solver for global seismic wave propagation. It
// marches the weak-form equations of motion with an explicit second-
// order Newmark scheme; the diagonal mass matrix of the SEM means no
// linear system is ever solved.
//
// Physics implemented, following the paper and Komatitsch & Tromp
// (2002): solid regions (crust/mantle, inner core + central cube) with
// isotropic elasticity and optional shear attenuation via standard-
// linear-solid memory variables; the fluid outer core in the scalar
// potential formulation; non-iterative displacement-based fluid-solid
// coupling at the CMB and ICB (Chaljub & Valette); Coriolis rotation;
// background gravity in the Cowling-style local approximation; and the
// ocean mass load on the free surface. Each MPI rank (simulated by
// internal/mpi) owns one mesh slice and exchanges assembled boundary
// contributions with its neighbors every time step.
package solver

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"specglobe/internal/earthmodel"
	"specglobe/internal/gll"
	"specglobe/internal/mesh"
	"specglobe/internal/mpi"
	"specglobe/internal/perf"
	"specglobe/internal/simd"
)

// Kernel selects the implementation of the 5x5 cutplane matrix products
// in the internal-force routines (the section 4.3 comparison).
type Kernel int

const (
	// KernelVec4 is the manually vectorized kernel, the default and the
	// production path. On amd64 hosts with AVX2 its contractions and
	// the pointwise stages run 8-lane assembly bodies; everywhere else
	// the 4-lane Go bodies they are tested against bit for bit (same
	// seismograms either way; DESIGN.md "Vector kernels").
	KernelVec4 Kernel = iota
	// KernelScalar is the plain-loop baseline and the oracle of the
	// cross-variant tests.
	KernelScalar
)

// String returns the variant name used in ablation tables and accepted
// by ParseKernel.
func (k Kernel) String() string {
	switch k {
	case KernelVec4:
		return "vec4"
	case KernelScalar:
		return "scalar"
	}
	return fmt.Sprintf("Kernel(%d)", int(k))
}

// ParseKernel resolves a kernel variant name as printed by String; the
// empty name selects the default (vec4).
func ParseKernel(name string) (Kernel, error) {
	switch name {
	case "", "vec4":
		return KernelVec4, nil
	case "scalar":
		return KernelScalar, nil
	case "blas", "fused":
		return 0, fmt.Errorf("kernel %q was retired (want vec4 or scalar)", name)
	}
	return 0, fmt.Errorf("unknown kernel %q (want vec4 or scalar)", name)
}

// EarthRotationRate is the sidereal rotation rate in rad/s.
const EarthRotationRate = 7.292115e-5

// Options configure a solver run. Every run uses the paper's overlapped
// step schedule: outer-element forces first, non-blocking halo sends and
// receives posted, inner elements computed while the messages are in
// flight, then wait and accumulate (DESIGN.md "The overlap schedule").
type Options struct {
	// Dt is the time step in seconds; 0 derives it from the mesh at
	// mesh.Courant.
	Dt float64
	// Steps is the number of time steps to march.
	Steps int
	// Attenuation enables shear attenuation with memory variables.
	Attenuation bool
	// AttenuationBand is the [fmin, fmax] band (Hz) for the SLS fit;
	// zero selects a band around the mesh resolution.
	AttenuationBand [2]float64
	// Rotation enables the Coriolis term in the solid regions.
	Rotation bool
	// RotationRate overrides the rotation rate (rad/s); 0 means Earth.
	RotationRate float64
	// Gravity enables the background-gravity restoring term.
	Gravity bool
	// OceanLoad enables the ocean mass load on the free surface (only
	// effective if the mesh carries water depth information).
	OceanLoad bool
	// Kernel selects the force-kernel implementation.
	Kernel Kernel
	// Workers caps the force kernels and pointwise update loops
	// computing at once — the hybrid MPI+threads model, so 24 ranks on
	// 8 cores do not oversubscribe the host. A rank runs its own sweeps
	// while no rank carries more than 1/Workers of the sweep time, and
	// otherwise hands them in chunks to Workers shared worker
	// goroutines, so a busy rank can use every core (pool.go). Results
	// are bit-identical at every worker count and in either shape (the
	// mesh coloring fixes the accumulation order). 0 means GOMAXPROCS;
	// 1 runs the kernels serially.
	Workers int
	// CombinedSolidHalo is retired: every run sends the crust/mantle and
	// inner-core halo in one message per neighbor, and Run ignores it.
	// It goes with LTS and LTSMaxRate once the benchmark harness stops
	// naming them.
	CombinedSolidHalo bool
	// Network configures the virtual interconnect the simulated MPI
	// world charges (latency per message endpoint, link bandwidth).
	// Zero selects the SeaStar2 defaults; the perfmodel machine catalog
	// supplies per-machine values so FIG6/OVERLAP can extrapolate per
	// machine.
	Network mpi.Options
	// RecordEvery records seismogram samples every N steps (default 1).
	RecordEvery int
	// EnergyEvery computes a global energy sample every N steps
	// (0 disables; energy computation is expensive).
	EnergyEvery int
	// StabilityCheckEvery checks the global maximum displacement every
	// N steps and aborts the run if it exceeds maxStableDisplacement or
	// becomes NaN — the standard SPECFEM runtime stability check for
	// runs whose time step turns out too large (0 disables).
	StabilityCheckEvery int
	// LTS and LTSMaxRate are retired: clustered local time stepping
	// was deleted and every element steps at the one global Dt. Run
	// refuses a true LTS or a non-zero LTSMaxRate.
	LTS        bool
	LTSMaxRate int
	// OnChunk, when non-nil, streams seismogram samples incrementally
	// as the integrator advances: every receiver emits a Chunk per
	// batched wavefield each time StreamChunkSamples fresh samples have
	// been recorded, plus a final (possibly short) chunk with Last set
	// after the step loop. Chunks carry copies — safe to retain — and
	// concatenating a receiver's chunks in Start order reproduces the
	// Result seismogram bit-for-bit: streaming only copies samples the
	// recorder already appended and never alters the arithmetic. The
	// callback is invoked concurrently from rank goroutines and must be
	// safe for concurrent use; a blocking callback stalls its rank.
	OnChunk func(Chunk)
	// StreamChunkSamples is the per-receiver flush granularity of
	// OnChunk in recorded samples (default 32 when OnChunk is set).
	StreamChunkSamples int
}

func (o Options) withDefaults() Options {
	if o.RecordEvery == 0 {
		o.RecordEvery = 1
	}
	if o.RotationRate == 0 {
		o.RotationRate = EarthRotationRate
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.OnChunk != nil && o.StreamChunkSamples <= 0 {
		o.StreamChunkSamples = 32
	}
	return o
}

// Source is a seismic point source in a solid region of the mesh.
// Either MomentTensor (a CMT-style double couple or explosion) or Force
// (a simple point force, useful for validation) must be non-zero.
type Source struct {
	Rank int
	Kind earthmodel.Region
	Elem int
	Ref  [3]float64
	// Field selects the ensemble wavefield this source drives (default
	// 0). Sources with distinct Field values propagate through
	// independent wavefields batched through one time loop over the
	// shared mesh: every element sweep advances all fields, every halo
	// message carries all fields, and each field's arithmetic is
	// bit-identical to a single-source run. The number of batched
	// wavefields is 1 + max(Field) over all sources.
	Field int
	// MomentTensor in N*m, symmetric.
	MomentTensor [3][3]float64
	// Force in N.
	Force [3]float64
	// STF is the source time function multiplying the source term.
	STF func(t float64) float64
}

// Receiver records a three-component displacement seismogram at a mesh
// location in a solid region.
type Receiver struct {
	Name string
	Rank int
	Kind earthmodel.Region
	Elem int
	Ref  [3]float64
}

// Seismogram is a recorded three-component time series. Field
// identifies the ensemble wavefield (source) it recorded; every
// receiver records every batched wavefield.
type Seismogram struct {
	Name        string
	Field       int
	Dt          float64 // sampling interval (solver dt * RecordEvery)
	X, Y, Z     []float32
	RecordEvery int
}

// Chunk is one streamed increment of a receiver's seismogram: samples
// [Start, Start+len(X)) of the (Name, Field) series, copied out of the
// recorder's buffers. Chunks for one (Name, Field) pair arrive in
// Start order from a single rank goroutine and are append-only —
// concatenating them equals the final Result seismogram bit-for-bit.
// Last marks the final chunk of the series for this run.
type Chunk struct {
	Name        string
	Field       int
	Start       int     // index of the first sample in the full series
	Dt          float64 // sampling interval (solver dt * RecordEvery)
	RecordEvery int
	X, Y, Z     []float32
	Last        bool
}

// EnergySample is one global energy measurement.
type EnergySample struct {
	Step               int
	Kinetic, Potential float64
}

// Simulation bundles a distributed mesh with sources and receivers.
type Simulation struct {
	Locals    []*mesh.Local
	Plans     []*mesh.HaloPlan
	Model     earthmodel.Model
	Sources   []Source
	Receivers []Receiver
	Opts      Options
}

// Result carries everything a run produces.
type Result struct {
	Dt    float64
	Steps int
	// Seismograms holds field 0's records by station name — the full
	// result of a single-source run. Alias of BySource[0].
	Seismograms map[string]*Seismogram
	// BySource holds one station-name-keyed map per batched wavefield
	// (len = number of ensemble fields; 1 for single-source runs).
	BySource []map[string]*Seismogram
	// NumFields is the number of batched wavefields (1 + max Field).
	NumFields int
	// SourceStepsPerSec is the ensemble throughput: time steps times
	// batched wavefields per wall second. For NumFields == 1 it equals
	// steps/sec; a batched run beats sequential runs when its
	// source-steps/sec exceeds the single-source steps/sec.
	SourceStepsPerSec float64
	Perf              perf.Report
	MPI               mpi.Stats
	Energy            []EnergySample
	// MaxDisplacement is the largest absolute displacement component
	// (meters) any rank holds when the run ends; NaN if a field blew up.
	MaxDisplacement float64
	// Subnormals counts the subnormal float32 values left in the
	// persistent state of all ranks (displacement, velocity, fluid
	// potential and rate, attenuation memory variables) when the run
	// ends, plus the final accelerations that are non-zero
	// below the flush threshold. The integrator flushes tiny values to
	// zero where it writes them — arithmetic on subnormals made late
	// steps 3-8x slower than early ones — so anything but 0 means a
	// write site escaped the flush.
	Subnormals int64
}

// stepHook, when non-nil, runs on every rank's goroutine after each
// step: the tests' window on the per-step state.
var stepHook func(rs *rankState, step int)

// maxStableDisplacement is the stability check's abort threshold in
// meters (Options.StabilityCheckEvery).
const maxStableDisplacement = 1e10

// Run executes the simulation: one goroutine per rank over the simulated
// MPI world. A run whose end-of-run census finds a NaN displacement
// returns an error with its result, whether or not the stability check
// was on.
//
//specfem:noaccount driver-level work (stable-dt reduction, seismogram collection, report assembly) around the stepped loop; kernels account themselves
func Run(sim *Simulation) (*Result, error) {
	opts := sim.Opts.withDefaults()
	if len(sim.Locals) == 0 {
		return nil, fmt.Errorf("solver: no mesh")
	}
	if len(sim.Plans) != len(sim.Locals) {
		return nil, fmt.Errorf("solver: %d plans for %d locals", len(sim.Plans), len(sim.Locals))
	}
	if opts.Steps <= 0 {
		return nil, fmt.Errorf("solver: Steps must be positive")
	}
	if opts.RecordEvery < 0 {
		return nil, fmt.Errorf("solver: RecordEvery %d must not be negative", opts.RecordEvery)
	}
	if opts.Kernel != KernelVec4 && opts.Kernel != KernelScalar {
		return nil, fmt.Errorf("solver: unknown kernel %v", opts.Kernel)
	}
	if opts.LTS || opts.LTSMaxRate != 0 {
		return nil, fmt.Errorf("solver: local time stepping (Options.LTS, LTSMaxRate) was retired: every element steps at the global dt")
	}
	dt := opts.Dt
	if dt == 0 {
		dt = mesh.StableDt(sim.Locals, mesh.Courant)
	}
	if dt <= 0 || math.IsInf(dt, 0) || math.IsNaN(dt) {
		return nil, fmt.Errorf("solver: bad time step %g", dt)
	}
	ns := 1
	for i := range sim.Sources {
		s := &sim.Sources[i]
		if s.Kind == earthmodel.RegionOuterCore {
			return nil, fmt.Errorf("solver: source %d in the fluid outer core is not supported", i)
		}
		if s.STF == nil {
			return nil, fmt.Errorf("solver: source %d has no source-time function", i)
		}
		if err := placed(sim.Locals, s.Rank, s.Kind, s.Elem); err != nil {
			return nil, fmt.Errorf("solver: source %d %w", i, err)
		}
		if s.Field < 0 {
			return nil, fmt.Errorf("solver: source %d has negative Field %d", i, s.Field)
		}
		if s.Field+1 > ns {
			ns = s.Field + 1
		}
	}
	names := map[string]bool{}
	for i := range sim.Receivers {
		r := &sim.Receivers[i]
		if r.Kind == earthmodel.RegionOuterCore {
			return nil, fmt.Errorf("solver: receiver %q in the fluid outer core is not supported", r.Name)
		}
		if err := placed(sim.Locals, r.Rank, r.Kind, r.Elem); err != nil {
			return nil, fmt.Errorf("solver: receiver %q %w", r.Name, err)
		}
		if names[r.Name] {
			return nil, fmt.Errorf("solver: duplicate receiver name %q", r.Name)
		}
		names[r.Name] = true
	}

	// Attenuation fit shared by all ranks.
	var slsFit *earthmodel.SLSFit
	if opts.Attenuation {
		band := opts.AttenuationBand
		if band[0] == 0 || band[1] == 0 {
			// Center the band on frequencies the mesh can carry.
			band = [2]float64{1.0 / (400 * dt), 1.0 / (20 * dt)}
		}
		fit, err := earthmodel.FitAttenuation(band[0], band[1], earthmodel.DefaultNSLS)
		if err != nil {
			return nil, err
		}
		slsFit = fit
	}
	// Gravity profile shared by all ranks.
	var grav *earthmodel.GravityProfile
	if opts.Gravity {
		if sim.Model == nil {
			return nil, fmt.Errorf("solver: gravity requires the Earth model")
		}
		grav = earthmodel.NewGravityProfile(sim.Model, 2000)
	}

	world := mpi.NewWorldWith(len(sim.Locals), opts.Network)
	profs := make([]*perf.Profiler, len(sim.Locals)) // each rank writes its own
	kernelPool := newPool(opts.Workers, len(sim.Locals))
	// One read-only table set for every rank and worker.
	kern := newKernels(opts.Kernel)
	res := &Result{
		Dt:       dt,
		Steps:    opts.Steps,
		BySource: make([]map[string]*Seismogram, ns),
	}
	for s := range res.BySource {
		res.BySource[s] = map[string]*Seismogram{}
	}
	res.Seismograms = res.BySource[0]
	var resMu sync.Mutex

	var unstable error
	var unstableMu sync.Mutex
	world.Run(func(c *mpi.Comm) {
		rs := newRankState(c, sim, &opts, dt, slsFit, grav, kernelPool, kern, ns)
		rs.assembleMass()
		rs.prof.Start()
		for step := 0; step < opts.Steps; step++ {
			rs.timeStep(step)
			if stepHook != nil {
				stepHook(rs, step)
			}
			if opts.StabilityCheckEvery > 0 && (step+1)%opts.StabilityCheckEvery == 0 {
				local, _ := rs.stateCensus()
				m := c.AllreduceScalar(mpi.OpMax, local)
				if m > maxStableDisplacement || math.IsNaN(m) {
					// Every rank sees the same reduced value, so all
					// ranks exit together and no exchange is orphaned.
					unstableMu.Lock()
					if unstable == nil {
						unstable = fmt.Errorf(
							"solver: simulation became unstable at step %d: max displacement %g m (limit %g); the time step %g s is too large for this mesh",
							step+1, m, maxStableDisplacement, dt)
					}
					unstableMu.Unlock()
					break
				}
			}
			if opts.EnergyEvery > 0 && (step+1)%opts.EnergyEvery == 0 {
				k, p := rs.localEnergy()
				tot := c.Allreduce(mpi.OpSum, []float64{k, p})
				if c.Rank() == 0 {
					resMu.Lock()
					res.Energy = append(res.Energy, EnergySample{Step: step + 1, Kinetic: tot[0], Potential: tot[1]})
					resMu.Unlock()
				}
			}
		}
		rs.prof.Stop()
		if opts.OnChunk != nil {
			// Terminate every stream (outside the profiled section so
			// callback time never pollutes the solver's busy time).
			rs.flushChunks(true)
		}
		maxDisp, subnormals := rs.stateCensus()
		resMu.Lock()
		if maxDisp > res.MaxDisplacement || math.IsNaN(maxDisp) {
			res.MaxDisplacement = maxDisp
		}
		res.Subnormals += subnormals
		resMu.Unlock()
		// The pool's busy time of the dispatched beats and the comm time.
		st := c.Stats()
		for ph, d := range map[perf.Phase]time.Duration{
			perf.PhaseKernelParallel: time.Duration(atomic.LoadInt64(&rs.forceBusy)),
			perf.PhaseUpdate:         time.Duration(atomic.LoadInt64(&rs.updateBusy)),
			perf.PhaseComm:           st.Exposed(),
		} {
			rs.prof.Add(ph, d)
		}
		profs[c.Rank()] = rs.prof
		if len(rs.seismos) > 0 {
			resMu.Lock()
			for _, sg := range rs.seismos {
				res.BySource[sg.Field][sg.Name] = sg
			}
			resMu.Unlock()
		}
	})

	kernelPool.close()
	res.Perf = perf.Aggregate(profs)
	res.Perf.Workers = opts.Workers
	res.Perf.WorkerBusy = kernelPool.Busy()
	res.NumFields = ns
	res.SourceStepsPerSec = perf.SourceStepsPerSec(opts.Steps, ns, res.Perf.WallTime)
	res.MPI = world.Stats()
	if unstable != nil {
		return res, unstable
	}
	if m := res.MaxDisplacement; math.IsNaN(m) || math.IsInf(m, 0) {
		// core refuses non-finite events and stations before a run
		// starts; what is left to grow the state without bound is the
		// step.
		step := fmt.Sprintf("mesh.Courant's automatic step, Courant number %g", mesh.Courant)
		if opts.Dt != 0 {
			auto := mesh.StableDt(sim.Locals, mesh.Courant)
			step = fmt.Sprintf("set by Options.Dt: %.3g times mesh.Courant's automatic %g s", dt/auto, auto)
		}
		return res, fmt.Errorf("solver: the displacement holds %g after %d steps at dt %g s (%s); the likely cause is a time step too large for this mesh",
			m, opts.Steps, dt, step)
	}
	return res, nil
}

// placed checks that a source or receiver sits in an element of a
// region its rank carries.
func placed(locals []*mesh.Local, rank int, kind earthmodel.Region, elem int) error {
	if rank < 0 || rank >= len(locals) {
		return fmt.Errorf("on invalid rank %d", rank)
	}
	if kind < 0 || int(kind) >= len(locals[rank].Regions) {
		return fmt.Errorf("in invalid region %d", int(kind))
	}
	reg := locals[rank].Regions[kind]
	if reg == nil || reg.NSpec == 0 {
		return fmt.Errorf("in region %v, which rank %d does not carry", kind, rank)
	}
	if elem < 0 || elem >= reg.NSpec {
		return fmt.Errorf("in element %d, outside [0, %d)", elem, reg.NSpec)
	}
	return nil
}

// kernels bundles the matrices the force routines apply along cutplanes.
// It is immutable after newKernels: one instance serves every rank and
// pool worker of a run.
type kernels struct {
	variant Kernel
	hprime  *simd.Matrix // l'_j(x_i)
	hpwT    *simd.Matrix // transposed weighted: hpwT[i][l] = w_l * h'[l][i]
	colsH   [gll.NGLL]simd.Vec4
	colsT   [gll.NGLL]simd.Vec4
	// fac1[p] = w_j*w_k, fac2[p] = w_i*w_k, fac3[p] = w_i*w_j for the
	// final weight application.
	fac1, fac2, fac3 [mesh.NGLL3]float32
}

//specfem:noaccount one-time setup of GLL derivative matrices and kernel tables
func newKernels(variant Kernel) *kernels {
	b := gll.New(gll.Degree)
	k := &kernels{variant: variant}
	k.hprime = simd.MatrixFromF64(b.HPrime)
	var t simd.Matrix
	for i := 0; i < gll.NGLL; i++ {
		for l := 0; l < gll.NGLL; l++ {
			t[i][l] = float32(b.Weights[l] * b.HPrime[l][i])
		}
	}
	k.hpwT = &t
	k.colsH = simd.Columns4(k.hprime)
	k.colsT = simd.Columns4(k.hpwT)
	w := b.Weights
	for kk := 0; kk < gll.NGLL; kk++ {
		for j := 0; j < gll.NGLL; j++ {
			for i := 0; i < gll.NGLL; i++ {
				p := i + gll.NGLL*j + gll.NGLL*gll.NGLL*kk
				k.fac1[p] = float32(w[j] * w[kk])
				k.fac2[p] = float32(w[i] * w[kk])
				k.fac3[p] = float32(w[i] * w[j])
			}
		}
	}
	return k
}

// grad applies the derivative matrix along all three directions with
// the selected kernel variant.
func (k *kernels) grad(u, d1, d2, d3 []float32) {
	if k.variant == KernelScalar {
		simd.GradScalar(k.hprime, u, d1, d2, d3)
		return
	}
	simd.GradVec4(k.hprime, &k.colsH, u, d1, d2, d3)
}
