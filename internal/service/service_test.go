package service

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"specglobe/internal/core"
	"specglobe/internal/solver"
	"specglobe/internal/stations"
)

// baseSpec is the cheapest runnable job: the homogeneous Earth-like
// model at NEX 4, a deep double-couple, one catalog station and one
// explicit-coordinate station. The explicit one sits a few degrees from
// every epicenter the tests use (latOffset in [-6, 6]) so that it
// records physical motion within 10 steps — the teleseismic catalog
// station stays exactly zero that early.
func baseSpec(name string, latOffset float64) JobSpec {
	lat, lon := -24.0, -61.0
	return JobSpec{
		Name:  name,
		Model: "earthlike",
		NexXi: 4,
		Steps: 10,
		Event: &EventSpec{
			LatDeg: -27 + latOffset, LonDeg: -63, DepthM: 150e3,
			Mrr: 1e20, Mtt: -0.5e20, Mpp: -0.5e20, Mrt: 0.3e20,
			HalfDurationSec: 20,
		},
		Stations: []StationSpec{
			{Name: "ANMO"},
			{Name: "LOCL", LatDeg: &lat, LonDeg: &lon},
		},
	}
}

// memSink collects everything a job streams.
type memSink struct {
	mu     sync.Mutex
	chunks map[string][]core.StreamChunk // jobID -> chunks in arrival order
	dones  map[string]JobStatus
	// failAfter, when positive, makes Chunk fail for jobs in failJobs
	// once that many chunks were accepted — the disconnect fault.
	failAfter int
	failJobs  map[string]bool
	accepted  int
}

func newMemSink() *memSink {
	return &memSink{chunks: map[string][]core.StreamChunk{}, dones: map[string]JobStatus{}}
}

func (s *memSink) Chunk(jobID string, ch core.StreamChunk) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failAfter > 0 && s.failJobs[jobID] && s.accepted >= s.failAfter {
		return fmt.Errorf("synthetic disconnect")
	}
	s.accepted++
	s.chunks[jobID] = append(s.chunks[jobID], ch)
	return nil
}

func (s *memSink) Done(st JobStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dones[st.ID] = st
}

// assemble concatenates a job's streamed chunks per station, checking
// the append-only contract: per (station, field), Starts are
// contiguous from 0 and exactly one Last terminates the series.
func assemble(t *testing.T, chunks []core.StreamChunk) map[string]*solver.Seismogram {
	t.Helper()
	byStation := map[string][]core.StreamChunk{}
	for _, ch := range chunks {
		byStation[ch.Name] = append(byStation[ch.Name], ch)
	}
	out := map[string]*solver.Seismogram{}
	for name, chs := range byStation {
		sort.SliceStable(chs, func(i, j int) bool { return chs[i].Start < chs[j].Start })
		sg := &solver.Seismogram{Name: name, Dt: chs[0].Dt, RecordEvery: chs[0].RecordEvery}
		lasts := 0
		for _, ch := range chs {
			if ch.Start != len(sg.X) {
				t.Fatalf("station %s: chunk starts at %d, have %d samples: stream is not append-only", name, ch.Start, len(sg.X))
			}
			sg.X = append(sg.X, ch.X...)
			sg.Y = append(sg.Y, ch.Y...)
			sg.Z = append(sg.Z, ch.Z...)
			if ch.Last {
				lasts++
			}
		}
		if lasts != 1 {
			t.Fatalf("station %s: %d Last chunks, want exactly 1", name, lasts)
		}
		out[name] = sg
	}
	return out
}

// directSeismos runs the job directly through one-shot core.Run.
func directSeismos(t *testing.T, spec JobSpec, workers int) map[string]*solver.Seismogram {
	t.Helper()
	cfg, err := DirectConfig(spec, workers)
	if err != nil {
		t.Fatalf("DirectConfig: %v", err)
	}
	rep, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	return rep.Result.Seismograms
}

// sameSeismos asserts bit-identity on every station and a non-vacuous
// signal on at least one.
func sameSeismos(t *testing.T, tag string, want, got map[string]*solver.Seismogram) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d stations streamed, want %d", tag, len(got), len(want))
	}
	peak := float32(0)
	for name, w := range want {
		g := got[name]
		if g == nil {
			t.Fatalf("%s: station %s missing from stream", tag, name)
		}
		if len(g.X) != len(w.X) {
			t.Fatalf("%s/%s: %d samples, want %d", tag, name, len(g.X), len(w.X))
		}
		for i := range w.X {
			if g.X[i] != w.X[i] || g.Y[i] != w.Y[i] || g.Z[i] != w.Z[i] {
				t.Fatalf("%s/%s: sample %d differs: streamed (%g,%g,%g) direct (%g,%g,%g)",
					tag, name, i, g.X[i], g.Y[i], g.Z[i], w.X[i], w.Y[i], w.Z[i])
			}
			for _, v := range []float32{w.X[i], w.Y[i], w.Z[i]} {
				if v < 0 {
					v = -v
				}
				if v > peak {
					peak = v
				}
			}
		}
	}
	if peak == 0 {
		t.Fatalf("%s: all-zero seismograms, vacuous comparison", tag)
	}
}

// TestServiceDeterminism is the tentpole harness: a shuffled mix of
// compatible and incompatible jobs through an in-process daemon, every
// streamed seismogram bit-identical to its direct single-source
// core.Run, across batch grouping boundaries and Workers in {1, 4}.
func TestServiceDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"w1", 1},
		{"w4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Five jobs, shuffled: three share a key (two fill a batch,
			// the third crosses the grouping boundary into the next),
			// one differs in step count, one in kernel.
			a1, a2, a3 := baseSpec("a1", 0), baseSpec("a2", 4), baseSpec("a3", -6)
			b := baseSpec("b", 2)
			b.Steps = 14
			c := baseSpec("c", -3)
			c.Kernel = "scalar"
			shuffled := []JobSpec{a2, b, a1, c, a3}

			sink := newMemSink()
			clock := NewFakeClock(time.Unix(1_000_000, 0))
			d := New(Config{
				MaxBatch: 2, Window: time.Second, Workers: tc.workers,
				ChunkSamples: 4, Clock: clock,
			})
			defer d.Close()

			ids := make([]string, len(shuffled))
			for i, sp := range shuffled {
				id, err := d.Submit(sp, sink)
				if err != nil {
					t.Fatalf("submit %s: %v", sp.Name, err)
				}
				ids[i] = id
			}
			// The full key-A batch dispatches on its own; the three
			// window stragglers (a3, b, c) go out on Flush.
			d.Flush()

			batched := 0
			for i, id := range ids {
				st, ok := d.Wait(id)
				if !ok {
					t.Fatalf("job %s vanished", id)
				}
				if st.State != StateDone {
					t.Fatalf("job %s (%s): state %s err %s: %s", id, shuffled[i].Name, st.State, st.ErrCode, st.ErrMsg)
				}
				if st.BatchSize == 2 {
					batched++
				}
				if st.SourceStepsPerSec <= 0 {
					t.Errorf("job %s: no throughput accounting", id)
				}
			}
			if batched != 2 {
				t.Errorf("%d jobs rode the full S=2 batch, want 2 (grouping boundary not exercised)", batched)
			}

			for i, id := range ids {
				got := assemble(t, sink.chunks[id])
				want := directSeismos(t, shuffled[i], tc.workers)
				sameSeismos(t, shuffled[i].Name, want, got)
			}
		})
	}
}

// TestBatchWindowDispatch pins the max-wait window on the injected
// clock: a single job short of MaxBatch dispatches only once the fake
// clock passes the window.
func TestBatchWindowDispatch(t *testing.T) {
	sink := newMemSink()
	clock := NewFakeClock(time.Unix(1_000_000, 0))
	d := New(Config{MaxBatch: 4, Window: 50 * time.Millisecond, Workers: 1, Clock: clock})
	defer d.Close()

	id, err := d.Submit(baseSpec("solo", 0), sink)
	if err != nil {
		t.Fatal(err)
	}
	// Before the window expires the job must stay queued (the solver is
	// far slower than this check, so a false dispatch would be caught).
	time.Sleep(20 * time.Millisecond)
	if st, _ := d.Status(id); st.State != StateQueued {
		t.Fatalf("job dispatched before the batching window: %s", st.State)
	}
	// Advance past the window; retry until the loop has re-armed its
	// timer on the fake clock (Advance only fires existing waiters).
	deadline := time.Now().Add(10 * time.Second)
	for {
		clock.Advance(60 * time.Millisecond)
		st, _ := d.Status(id)
		if st.State != StateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("window expiry never dispatched the job")
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := d.Wait(id)
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.ErrMsg)
	}
	if st.BatchSize != 1 {
		t.Fatalf("window dispatch batch size %d, want 1", st.BatchSize)
	}
}

// TestSubmitTypedErrors pins the validation faults: each bad spec is
// rejected with its typed code, and good jobs drain regardless.
func TestSubmitTypedErrors(t *testing.T) {
	sink := newMemSink()
	d := New(Config{MaxBatch: 2, Window: time.Millisecond, Workers: 1})
	defer d.Close()

	bad := baseSpec("bad-model", 0)
	bad.Model = "iasp91"
	if _, err := d.Submit(bad, sink); CodeOf(err) != CodeUnknownModel {
		t.Errorf("unknown model: got %v, want code %s", err, CodeUnknownModel)
	}
	bad = baseSpec("bad-station", 0)
	bad.Stations = []StationSpec{{Name: "NOPE"}}
	if _, err := d.Submit(bad, sink); CodeOf(err) != CodeUnknownStation {
		t.Errorf("unknown station: got %v, want code %s", err, CodeUnknownStation)
	}
	bad = baseSpec("bad-steps", 0)
	bad.Steps = 0
	if _, err := d.Submit(bad, sink); CodeOf(err) != CodeBadRequest {
		t.Errorf("zero steps: got %v, want code %s", err, CodeBadRequest)
	}
	bad = baseSpec("bad-dt", 0)
	bad.Dt = -1
	if _, err := d.Submit(bad, sink); CodeOf(err) != CodeBadRequest {
		t.Errorf("negative dt: got %v, want code %s", err, CodeBadRequest)
	}
	for _, name := range []string{"quantum", "fused", "blas"} {
		bad = baseSpec("bad-kernel", 0)
		bad.Kernel = name
		if _, err := d.Submit(bad, sink); CodeOf(err) != CodeBadRequest {
			t.Errorf("kernel %q: got %v, want code %s", name, err, CodeBadRequest)
		}
	}
	bad = baseSpec("no-event", 0)
	bad.Event = nil
	if _, err := d.Submit(bad, sink); CodeOf(err) != CodeBadRequest {
		t.Errorf("missing event: got %v, want code %s", err, CodeBadRequest)
	}

	// The queue still drains a good job after all those rejections.
	id, err := d.Submit(baseSpec("good", 0), sink)
	if err != nil {
		t.Fatalf("good job rejected: %v", err)
	}
	if st, _ := d.Wait(id); st.State != StateDone {
		t.Fatalf("good job state %s: %s", st.State, st.ErrMsg)
	}
}

// A non-finite event field, a non-finite explicit station coordinate,
// a latitude beyond ±90° and a negative nproc, record_every or half
// duration (each used to run as its default) are refused at submit with
// CodeBadRequest: no job is created for them.
func TestSubmitRefusesNonFiniteInputs(t *testing.T) {
	sink := newMemSink()
	d := New(Config{MaxBatch: 2, Window: time.Millisecond, Workers: 1})
	defer d.Close()
	nan, inf := math.NaN(), math.Inf(1)
	for name, edit := range map[string]func(*JobSpec){
		"event lat NaN":      func(s *JobSpec) { s.Event.LatDeg = nan },
		"event lon Inf":      func(s *JobSpec) { s.Event.LonDeg = inf },
		"event depth NaN":    func(s *JobSpec) { s.Event.DepthM = nan },
		"event Mrr NaN":      func(s *JobSpec) { s.Event.Mrr = nan },
		"event half dur Inf": func(s *JobSpec) { s.Event.HalfDurationSec = inf },
		"event lat 200":      func(s *JobSpec) { s.Event.LatDeg = 200 },
		"station lat NaN":    func(s *JobSpec) { s.Stations[1].LatDeg = &nan },
		"station depth NaN":  func(s *JobSpec) { s.Stations[1].DepthM = nan },
		"dt NaN":             func(s *JobSpec) { s.Dt = nan },
		"dt +Inf":            func(s *JobSpec) { s.Dt = inf },
		"doubling NaN":       func(s *JobSpec) { s.Doublings = []float64{nan} },
		"nproc -1":           func(s *JobSpec) { s.NProcXi = -1 },
		"record_every -2":    func(s *JobSpec) { s.RecordEvery = -2 },
		"event half dur -5":  func(s *JobSpec) { s.Event.HalfDurationSec = -5 },
		"station lat 95": func(s *JobSpec) {
			lat := 95.0
			s.Stations[1].LatDeg = &lat
		},
	} {
		spec := baseSpec(name, 0)
		edit(&spec)
		if _, err := d.Submit(spec, sink); CodeOf(err) != CodeBadRequest {
			t.Errorf("%s: got %v, want code %s", name, err, CodeBadRequest)
		}
	}
}

// TestBadEventFailsAlone submits a batch where one event sits in the
// fluid outer core: that job fails CodeBadEvent, its batchmates run
// and stream bit-identically.
func TestBadEventFailsAlone(t *testing.T) {
	good1, good2 := baseSpec("good1", 0), baseSpec("good2", 5)
	badEv := baseSpec("bad-event", 0)
	badEv.Event.DepthM = 3000e3 // radius 3371 km: inside the fluid outer core

	sink := newMemSink()
	clock := NewFakeClock(time.Unix(1_000_000, 0))
	d := New(Config{MaxBatch: 3, Window: time.Second, Workers: 1, ChunkSamples: 4, Clock: clock})
	defer d.Close()

	var ids []string
	for _, sp := range []JobSpec{good1, badEv, good2} {
		id, err := d.Submit(sp, sink)
		if err != nil {
			t.Fatalf("submit %s: %v", sp.Name, err)
		}
		ids = append(ids, id)
	}
	stBad, _ := d.Wait(ids[1])
	if stBad.State != StateFailed || stBad.ErrCode != CodeBadEvent {
		t.Fatalf("fluid-core event: state %s code %s, want failed/%s", stBad.State, stBad.ErrCode, CodeBadEvent)
	}
	for i, name := range []int{0, 2} {
		st, _ := d.Wait(ids[name])
		if st.State != StateDone {
			t.Fatalf("batchmate %d state %s: %s", i, st.State, st.ErrMsg)
		}
		if st.BatchSize != 2 {
			t.Errorf("batchmate %d ran at S=%d, want 2 (survivors only)", i, st.BatchSize)
		}
	}
	sameSeismos(t, "good1", directSeismos(t, good1, 1), assemble(t, sink.chunks[ids[0]]))
	sameSeismos(t, "good2", directSeismos(t, good2, 1), assemble(t, sink.chunks[ids[2]]))
}

// TestStationNetworkConflictFailsAlone batches a job naming catalog
// station ANMO (network IU) with one that gives ANMO explicitly at the
// catalog coordinates, which makes it network XX: the same name with a
// different definition, which the receiver union refuses. The latecomer
// fails CodeBadRequest alone; the first job runs and streams
// bit-identically.
func TestStationNetworkConflictFailsAlone(t *testing.T) {
	var anmo stations.Station
	for _, st := range stations.ReferenceStations() {
		if st.Name == "ANMO" {
			anmo = st
		}
	}
	first, late := baseSpec("catalog", 0), baseSpec("renetworked", 5)
	late.Stations[0] = StationSpec{Name: "ANMO", LatDeg: &anmo.LatDeg, LonDeg: &anmo.LonDeg}

	sink := newMemSink()
	clock := NewFakeClock(time.Unix(1_000_000, 0))
	d := New(Config{MaxBatch: 2, Window: time.Second, Workers: 1, ChunkSamples: 4, Clock: clock})
	defer d.Close()

	var ids []string
	for _, sp := range []JobSpec{first, late} {
		id, err := d.Submit(sp, sink)
		if err != nil {
			t.Fatalf("submit %s: %v", sp.Name, err)
		}
		ids = append(ids, id)
	}
	if st, _ := d.Wait(ids[1]); st.State != StateFailed || st.ErrCode != CodeBadRequest {
		t.Fatalf("redefined station: state %s code %s, want failed/%s", st.State, st.ErrCode, CodeBadRequest)
	}
	if st, _ := d.Wait(ids[0]); st.State != StateDone {
		t.Fatalf("first job state %s: %s", st.State, st.ErrMsg)
	}
	sameSeismos(t, "catalog", directSeismos(t, first, 1), assemble(t, sink.chunks[ids[0]]))
}

// TestClientGoneMidStream disconnects one job's sink mid-stream: that
// job fails CodeClientGone, its batchmate streams to completion
// bit-identically.
func TestClientGoneMidStream(t *testing.T) {
	keep, drop := baseSpec("keep", 0), baseSpec("drop", 5)

	sink := newMemSink()
	sink.failAfter = 2 // accept two chunks, then "disconnect" drop's client
	clock := NewFakeClock(time.Unix(1_000_000, 0))
	d := New(Config{MaxBatch: 2, Window: time.Second, Workers: 1, ChunkSamples: 2, Clock: clock})
	defer d.Close()

	idKeep, err := d.Submit(keep, sink)
	if err != nil {
		t.Fatal(err)
	}
	idDrop, err := d.Submit(drop, sink)
	if err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	sink.failJobs = map[string]bool{idDrop: true}
	sink.mu.Unlock()

	stDrop, _ := d.Wait(idDrop)
	if stDrop.State != StateFailed || stDrop.ErrCode != CodeClientGone {
		t.Fatalf("dropped client: state %s code %s, want failed/%s", stDrop.State, stDrop.ErrCode, CodeClientGone)
	}
	stKeep, _ := d.Wait(idKeep)
	if stKeep.State != StateDone {
		t.Fatalf("surviving job state %s: %s", stKeep.State, stKeep.ErrMsg)
	}
	sameSeismos(t, "keep", directSeismos(t, keep, 1), assemble(t, sink.chunks[idKeep]))
}

// TestSessionBudget pins the cache-budget faults: a mesh that cannot
// ever fit fails its jobs with CodeSessionBudget; a same-size key
// evicts the resident session (LRU) and succeeds; the evicted key
// rebuilds on its next job. Nothing else in the queue is disturbed.
func TestSessionBudget(t *testing.T) {
	small := baseSpec("small", 0)
	cfg, err := DirectConfig(small, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	smallBytes := sessionBytes(sess)

	sink := newMemSink()
	d := New(Config{
		MaxBatch: 1, Window: time.Millisecond, Workers: 1,
		MemoryBudget: smallBytes + smallBytes/10,
	})
	defer d.Close()

	run := func(sp JobSpec) JobStatus {
		id, err := d.Submit(sp, sink)
		if err != nil {
			t.Fatalf("submit %s: %v", sp.Name, err)
		}
		st, _ := d.Wait(id)
		return st
	}

	if st := run(small); st.State != StateDone {
		t.Fatalf("small job: %s (%s)", st.State, st.ErrMsg)
	}
	// NEX 8 needs ~4x the mesh: over the whole budget, typed failure.
	big := baseSpec("big", 0)
	big.NexXi = 8
	if st := run(big); st.State != StateFailed || st.ErrCode != CodeSessionBudget {
		t.Fatalf("over-budget job: state %s code %s, want failed/%s", st.State, st.ErrCode, CodeSessionBudget)
	}
	// A second same-size key: fits only by evicting the resident
	// session — must succeed, not fail.
	other := baseSpec("other", 1)
	other.Kernel = "scalar"
	if st := run(other); st.State != StateDone {
		t.Fatalf("evicting job: %s (%s)", st.State, st.ErrMsg)
	}
	// The evicted key rebuilds on a miss.
	if st := run(baseSpec("small-again", 2)); st.State != StateDone {
		t.Fatalf("post-eviction job: %s (%s)", st.State, st.ErrMsg)
	}
	builds, hits, evictions, bytes := d.CacheStats()
	if evictions == 0 {
		t.Errorf("no evictions recorded; builds %d hits %d resident %d", builds, hits, bytes)
	}
	if builds < 3 {
		t.Errorf("builds %d, want >= 3 (initial, evicting key, rebuild)", builds)
	}
	if d.cfg.MemoryBudget > 0 && bytes > d.cfg.MemoryBudget {
		t.Errorf("resident %d bytes over budget %d", bytes, d.cfg.MemoryBudget)
	}
}

// TestConcurrentSubmitters is the race-coverage satellite: several
// goroutines submit against one drain loop under the wall clock; every
// job must finish. Run with -race this exercises the queue, batcher,
// cache and stream paths concurrently.
func TestConcurrentSubmitters(t *testing.T) {
	d := New(Config{MaxBatch: 3, Window: 2 * time.Millisecond, Workers: 2, ChunkSamples: 4})
	defer d.Close()

	const submitters = 4
	const perSubmitter = 3
	ids := make(chan string, submitters*perSubmitter)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sink := newMemSink()
			for i := 0; i < perSubmitter; i++ {
				sp := baseSpec(fmt.Sprintf("g%d-%d", g, i), float64(g)+float64(i)/10)
				sp.Steps = 6
				if g%2 == 1 {
					sp.Steps = 8 // second compat key
				}
				id, err := d.Submit(sp, sink)
				if err != nil {
					t.Errorf("submit g%d-%d: %v", g, i, err)
					return
				}
				ids <- id
			}
		}(g)
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		st, ok := d.Wait(id)
		if !ok || st.State != StateDone {
			t.Fatalf("job %s: ok=%v state %s err %s", id, ok, st.State, st.ErrMsg)
		}
	}
	builds, hits, _, _ := d.CacheStats()
	if builds > 2 {
		t.Errorf("%d session builds for 2 keys (cache not shared)", builds)
	}
	if hits == 0 {
		t.Errorf("no cache hits across %d jobs", submitters*perSubmitter)
	}
}
