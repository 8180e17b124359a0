package bench

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"specglobe/internal/core"
	"specglobe/internal/service"
	"specglobe/internal/stations"
)

// runCtx is what the repetitions of one workload share.
type runCtx struct {
	def     workloadDef
	sz      Sizes
	workers int
	scratch string  // directory for sockets and written seismograms
	tr      *Tracer // nil: tracing off
	chk     *checker
}

// sample is what one repetition measures, in seconds unless named
// otherwise. Every workload fills every field; extra holds the
// per-layer numbers a traced façade rep can see.
type sample struct {
	setup      float64
	solve      float64 // wall of the run call(s) / the warm burst
	firstChunk float64 // run call (or submit) → first streamed chunk
	tts        float64 // time to solution: set-up + solve (+ write)
	cpu        float64 // process CPU seconds (user + system) spent inside tts
	steps      int     // source-steps marched inside solve
	heapMB     float64
	extra      map[string]float64
	// setups and solves are the walls of the rep's timed phases, in the
	// rep's fixed order: one per session build (the cold burst of a
	// daemon), and each run call split at its streamed chunks (the warm
	// burst, whole). They sum to setup and solve; what is left of tts
	// (write, checks) is one more phase.
	setups, solves []float64
	// near holds the near-field seismograms by station name, for the
	// misfit against the golden reference.
	near map[string]series
	// byJob holds every streamed trace of a service burst by job name,
	// for the one-shot twin comparison of the traced run.
	byJob map[string]map[string]*series
}

// series is one three-component trace.
type series struct {
	X []float32 `json:"x"`
	Y []float32 `json:"y"`
	Z []float32 `json:"z"`
}

// sessionSpec builds the core.Config of a mesh/run shape through the
// service's own resolver, so the harness runs exactly the model
// catalog, defaults (vec4 kernel, combined solid halo, default overlap
// schedule) and worker wiring a daemon job of that shape gets.
func sessionSpec(spec service.JobSpec, workers int) (core.Config, error) {
	spec.Event = &service.EventSpec{}
	spec.Stations = []service.StationSpec{{Name: stations.ReferenceStations()[0].Name}}
	cfg, err := service.DirectConfig(spec, workers)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Event, cfg.Stations = core.Event{}, nil
	return cfg, nil
}

// premSpec is the production shape: PREM on a doubled mesh with the
// paper's full physics.
func premSpec(sz Sizes) service.JobSpec {
	return service.JobSpec{
		Model: "prem", NexXi: sz.PremNex, NProcXi: 1, Doublings: sz.PremDoublings,
		Steps: sz.PremSteps, Attenuation: true, Rotation: true, Gravity: true, OceanLoad: true,
	}
}

// earthlikeSpec is the homogeneous Earth-sized test shape.
func earthlikeSpec(nex, nproc, steps int) service.JobSpec {
	return service.JobSpec{Model: "earthlike", NexXi: nex, NProcXi: nproc, Steps: steps}
}

// streamLog collects streamed chunks. Chunk callbacks arrive
// concurrently from rank goroutines.
type streamLog struct {
	mu     sync.Mutex
	first  time.Time
	chunks int
	// unordered is set when a chunk did not start where its series
	// ended.
	unordered bool
	got       map[string]*series
	// stampOf, when set, names the station whose chunk arrival times
	// are kept (one per chunk): they split a run call into phases, and
	// with one-sample chunks they are the step clock of the traced run.
	stampOf string
	stamps  []time.Time
}

func newStreamLog() *streamLog { return &streamLog{got: map[string]*series{}} }

func (l *streamLog) add(name string, start int, x, y, z []float32) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.chunks == 0 {
		l.first = now
	}
	l.chunks++
	s := l.got[name]
	if s == nil {
		s = &series{}
		l.got[name] = s
	}
	if start != len(s.X) {
		l.unordered = true
	}
	s.X, s.Y, s.Z = append(s.X, x...), append(s.Y, y...), append(s.Z, z...)
	if name == l.stampOf && len(x) > 0 {
		l.stamps = append(l.stamps, now)
	}
}

// build times core.NewSession.
func (c *runCtx) build(parent int, cfg core.Config) (*core.Session, float64) {
	var s *core.Session
	var err error
	t0 := time.Now()
	c.tr.Do(parent, "core", "NewSession", func(int) { s, err = core.NewSession(cfg) })
	d := time.Since(t0).Seconds()
	if !c.chk.err(err, "core.NewSession") {
		return nil, d
	}
	return s, d
}

// streamRun runs one scenario on a session through
// Session.RunBatchStream and verifies the bitwise invariants: chunks
// arrive in order, their concatenation == the Report seismograms, and
// every sample is finite. It returns the report, the run call's wall
// split into phases at the chunk arrivals of the first station (call →
// first chunk, chunk → chunk, last chunk → return) and the call → first
// chunk latency.
func (c *runCtx) streamRun(parent int, s *core.Session, sc Scenario, sts []stations.Station, chunk int) (*core.Report, []float64, float64) {
	log := newStreamLog()
	log.stampOf = sts[0].Name
	var reps []*core.Report
	var err error
	t0 := time.Now()
	c.tr.Do(parent, "core", "RunBatchStream", func(int) {
		reps, err = s.RunBatchStream(
			[]core.Scenario{{Name: sc.Event.Name, Event: sc.Event, Stations: sts}}, chunk,
			func(ch core.StreamChunk) { log.add(ch.Name, ch.Start, ch.X, ch.Y, ch.Z) })
	})
	end := time.Now()
	if !c.chk.err(err, "Session.RunBatchStream") {
		return nil, nil, 0
	}
	var phases []float64
	at := t0
	for _, stamp := range append(log.stamps, end) {
		phases = append(phases, stamp.Sub(at).Seconds())
		at = stamp
	}
	rep := reps[0]
	c.chk.ok(!log.unordered, "%s: streamed chunks arrived out of order", sc.Event.Name)
	c.chk.ok(len(rep.Result.Seismograms) == len(sts), "%s: %d seismograms for %d stations",
		sc.Event.Name, len(rep.Result.Seismograms), len(sts))
	same, finite := true, true
	for name, sg := range rep.Result.Seismograms {
		got := log.got[name]
		if got == nil || !equal32(got.X, sg.X) || !equal32(got.Y, sg.Y) || !equal32(got.Z, sg.Z) {
			same = false
		}
		if !finite32(sg.X) || !finite32(sg.Y) || !finite32(sg.Z) {
			finite = false
		}
	}
	c.chk.ok(same, "%s: concatenated chunks != Report seismograms", sc.Event.Name)
	c.chk.ok(finite, "%s: non-finite seismogram samples", sc.Event.Name)
	return rep, phases, log.first.Sub(t0).Seconds()
}

// nearSeries extracts the near-field traces of a scenario from a
// report and checks each carries a signal.
func (c *runCtx) nearSeries(rep *core.Report, sc Scenario, into map[string]series) {
	for _, st := range sc.Near {
		sg := rep.Result.Seismograms[st.Name]
		if !c.chk.ok(sg != nil, "near-field station %s not recorded", st.Name) {
			continue
		}
		c.chk.ok(energy(sg.X, sg.Y, sg.Z) > 0, "near-field station %s recorded no signal", st.Name)
		into[st.Name] = series{X: sg.X, Y: sg.Y, Z: sg.Z}
	}
}

// cpuSeconds is the process's CPU time so far, user + system. Unlike
// wall time it does not count the moments a shared host took the
// processor away.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapMB returns HeapAlloc after a full collection; the caller
// keeps whatever should count as live referenced across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// sessionRep is one repetition of a single-session workload:
// core.NewSession on the shape, one streamed run of the scenario over
// the station set, and (writeSem) the .sem text output.
func (c *runCtx) sessionRep(parent int, spec service.JobSpec, sc Scenario, sts []stations.Station, writeSem bool) sample {
	cfg, err := sessionSpec(spec, c.workers)
	if !c.chk.err(err, "session config") {
		return sample{}
	}
	t0, cpu0 := time.Now(), cpuSeconds()
	s, setup := c.build(parent, cfg)
	if s == nil {
		return sample{}
	}
	rep, solves, first := c.streamRun(parent, s, sc, sts, 4)
	out := sample{setup: setup, solve: sum(solves), firstChunk: first, steps: cfg.Steps,
		setups: []float64{setup}, solves: solves,
		near: map[string]series{}, extra: map[string]float64{}}
	if rep == nil {
		return out
	}
	dir := filepath.Join(c.scratch, "sem")
	if writeSem {
		tw := time.Now()
		c.tr.Do(parent, "core", "WriteSeismograms", func(int) { err = core.WriteSeismograms(dir, rep.Result) })
		out.extra["core.write_sem_s"] = time.Since(tw).Seconds()
	}
	out.tts, out.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	if writeSem {
		if c.chk.err(err, "core.WriteSeismograms") {
			n, bytes := dirSize(dir)
			c.chk.ok(n == len(sts), "wrote %d .sem files for %d stations", n, len(sts))
			out.extra["core.sem_bytes"] = float64(bytes)
		}
		c.chk.err(os.RemoveAll(dir), "removing written seismograms")
	}
	c.nearSeries(rep, sc, out.near)
	out.heapMB = liveHeapMB()
	runtime.KeepAlive(s)
	runtime.KeepAlive(rep)
	return out
}

// premRep is one prem_full_solve repetition.
func (c *runCtx) premRep(parent int, scs []Scenario) sample {
	sc := scs[0]
	return c.sessionRep(parent, premSpec(c.sz), sc, append(stations.ReferenceStations(), sc.Near...), false)
}

// slicedRep is one sliced_stations repetition: 24 ranks recording a
// whole network, then the .sem text output.
func (c *runCtx) slicedRep(parent int, scs []Scenario) sample {
	sc := scs[0]
	sts := append(stations.GlobalNetwork(c.sz.SlicedStationCount), sc.Near...)
	return c.sessionRep(parent, slicedSpec(c.sz), sc, sts, true)
}

// setupSpecs lists the three mesh shapes of mesh_setup.
func setupSpecs(sz Sizes) []service.JobSpec {
	prem := premSpec(sz)
	prem.Steps = sz.SetupSteps
	prem.Attenuation, prem.Rotation, prem.Gravity, prem.OceanLoad = false, false, false, false
	return []service.JobSpec{
		earthlikeSpec(sz.SetupNex, 1, sz.SetupSteps),
		prem,
		earthlikeSpec(sz.SetupNex, 2, sz.SetupSteps),
	}
}

// setupRep is one mesh_setup repetition: build the three sessions,
// then a short streamed solve on each as a usability check.
func (c *runCtx) setupRep(parent int, scs []Scenario) sample {
	out := sample{near: map[string]series{}, extra: map[string]float64{}}
	specs := setupSpecs(c.sz)
	sessions := make([]*core.Session, len(specs))
	t0, cpu0 := time.Now(), cpuSeconds()
	for i, spec := range specs {
		cfg, err := sessionSpec(spec, c.workers)
		if !c.chk.err(err, "mesh_setup config") {
			return sample{}
		}
		s, d := c.build(parent, cfg)
		if s == nil {
			return sample{}
		}
		sessions[i] = s
		out.setup += d
		out.setups = append(out.setups, d)
	}
	var reps []*core.Report
	for i, s := range sessions {
		sc := scs[i]
		rep, solves, first := c.streamRun(parent, s, sc, sc.Near, 1)
		out.solve += sum(solves)
		out.solves = append(out.solves, solves...)
		out.firstChunk += first
		out.steps += specs[i].Steps
		if rep != nil {
			c.nearSeries(rep, sc, out.near)
		}
		reps = append(reps, rep)
	}
	out.tts, out.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	out.heapMB = liveHeapMB()
	runtime.KeepAlive(sessions)
	runtime.KeepAlive(reps)
	return out
}

// slicedSpec is the many-small-ranks shape.
func slicedSpec(sz Sizes) service.JobSpec {
	return earthlikeSpec(sz.SlicedNex, 2, sz.SlicedSteps)
}

// dirSize counts the regular files directly inside dir and their bytes.
func dirSize(dir string) (files int, bytes int64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			files++
			bytes += info.Size()
		}
	}
	return files, bytes
}

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

func equal32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Bit equality: NaN never equals itself, and the finiteness
		// check reports those separately.
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func finite32(v []float32) bool {
	for _, x := range v {
		if f := float64(x); math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

func energy(comps ...[]float32) float64 {
	var e float64
	for _, v := range comps {
		for _, x := range v {
			e += float64(x) * float64(x)
		}
	}
	return e
}

// misfit is ‖a−ref‖₂ / ‖ref‖₂ over the named traces (all components).
// A missing or mis-sized trace is an infinite misfit.
func misfit(got, ref map[string]series, names []string) float64 {
	var num, den float64
	for _, name := range names {
		a, okA := got[name]
		r, okR := ref[name]
		if !okA || !okR || len(a.X) != len(r.X) || len(a.Y) != len(r.Y) || len(a.Z) != len(r.Z) {
			return math.Inf(1)
		}
		for _, p := range [][2][]float32{{a.X, r.X}, {a.Y, r.Y}, {a.Z, r.Z}} {
			for i := range p[0] {
				d := float64(p[0][i]) - float64(p[1][i])
				num += d * d
				den += float64(p[1][i]) * float64(p[1][i])
			}
		}
	}
	if den == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}

// nearNames lists a scenario's near-field station names.
func nearNames(sc Scenario) []string {
	names := make([]string, len(sc.Near))
	for i, st := range sc.Near {
		names[i] = st.Name
	}
	return names
}
