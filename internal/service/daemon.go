package service

import (
	"fmt"
	"sync"
	"time"

	"specglobe/internal/core"
	"specglobe/internal/stations"
)

// Config parameterizes a Daemon.
type Config struct {
	// MaxBatch caps the ensemble size S: a key's queue dispatches as
	// soon as MaxBatch jobs are waiting (default 4).
	MaxBatch int
	// Window is the max-wait batching window: a key's queue dispatches
	// once its oldest job has waited this long even if the batch is
	// not full (default 25ms).
	Window time.Duration
	// MemoryBudget bounds the session cache in bytes of handed-over
	// mesh (meshio.MeshBytes); <= 0 means unlimited.
	MemoryBudget int64
	// Workers caps the solver's concurrent compute per run
	// (0 = GOMAXPROCS; solver.Options.Workers).
	Workers int
	// ChunkSamples is the streaming granularity in recorded samples
	// per chunk (default 32).
	ChunkSamples int
	// Clock is the batching-window time source (default: wall clock).
	// Tests inject a FakeClock to make grouping deterministic.
	Clock Clock
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4
	}
	if c.Window <= 0 {
		c.Window = 25 * time.Millisecond
	}
	if c.ChunkSamples <= 0 {
		c.ChunkSamples = 32
	}
	if c.Clock == nil {
		c.Clock = WallClock()
	}
	return c
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// JobStatus is the externally visible record of a job.
type JobStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	Key   string `json:"key"`
	State State  `json:"state"`
	// Err carries the typed failure of a failed job.
	ErrCode Code   `json:"err_code,omitempty"`
	ErrMsg  string `json:"err_msg,omitempty"`
	// BatchSize is the ensemble size S the job ran in.
	BatchSize int `json:"batch_size,omitempty"`
	// SourceStepsPerSec is the batched run's aggregate throughput
	// (steps x S / solver wall), shared by the batch.
	SourceStepsPerSec float64 `json:"src_steps_per_sec,omitempty"`
	// Samples is the number of streamed samples per station trace.
	Samples int `json:"samples,omitempty"`
}

// Sink receives a job's streamed results. Chunk is called concurrently
// from solver rank goroutines and must be safe for concurrent use; a
// non-nil error marks the client gone — the daemon stops streaming the
// job and fails it with CodeClientGone while the batch keeps running.
// Done delivers the terminal status exactly once per job.
type Sink interface {
	Chunk(jobID string, ch core.StreamChunk) error
	Done(st JobStatus)
}

// job is one queued scenario.
type job struct {
	id  string
	res *resolvedJob
	// sink delivery state; sinkMu also guards sinkDead so a failed
	// write races neither the concurrent rank callbacks nor the final
	// status.
	sink     Sink
	sinkMu   sync.Mutex
	sinkDead bool
	samples  int

	status JobStatus // guarded by the daemon mutex
	done   chan struct{}
}

// Daemon owns the queue, the batcher and the session cache, and drains
// them on a single background loop: one batch runs at a time (the
// solver already parallelizes across ranks and workers; overlapping
// batches would just thrash the pool), while submissions stay
// non-blocking.
type Daemon struct {
	cfg   Config
	cache *sessionCache

	mu       sync.Mutex
	jobs     map[string]*job
	pending  map[CompatKey][]*job
	keyOrder []CompatKey             // FIFO of keys with pending jobs
	oldest   map[CompatKey]time.Time // enqueue time of the key's oldest job
	forced   map[CompatKey]bool      // keys Flush promised to drain without waiting
	nextID   int
	closed   bool

	wake chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup

	batches int // completed batch count, for tests/status
}

// New starts a daemon and its drain loop.
func New(cfg Config) *Daemon {
	d := &Daemon{
		cfg:     cfg.withDefaults(),
		jobs:    map[string]*job{},
		pending: map[CompatKey][]*job{},
		oldest:  map[CompatKey]time.Time{},
		forced:  map[CompatKey]bool{},
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
	d.cache = newSessionCache(d.cfg.MemoryBudget)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.loop()
	}()
	return d
}

// Submit validates and enqueues a job, returning its id. Validation
// failures return a typed *Error and enqueue nothing — the offending
// job dies alone, the queue is untouched.
func (d *Daemon) Submit(spec JobSpec, sink Sink) (string, error) {
	res, err := resolveSpec(spec)
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return "", Errf(CodeShutdown, "daemon is closed")
	}
	d.nextID++
	j := &job{
		id:   fmt.Sprintf("job-%d", d.nextID),
		res:  res,
		sink: sink,
		done: make(chan struct{}),
	}
	j.status = JobStatus{ID: j.id, Name: spec.Name, Key: res.key.String(), State: StateQueued}
	d.jobs[j.id] = j
	if len(d.pending[res.key]) == 0 {
		d.keyOrder = append(d.keyOrder, res.key)
		d.oldest[res.key] = d.cfg.Clock.Now()
	}
	d.pending[res.key] = append(d.pending[res.key], j)
	d.mu.Unlock()

	select {
	case d.wake <- struct{}{}:
	default:
	}
	return j.id, nil
}

// Status reports a job's current status.
func (d *Daemon) Status(id string) (JobStatus, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status, true
}

// Wait blocks until the job reaches a terminal state and returns it.
func (d *Daemon) Wait(id string) (JobStatus, bool) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	<-j.done
	d.mu.Lock()
	defer d.mu.Unlock()
	return j.status, true
}

// Flush dispatches every pending job on the next loop pass without
// waiting for batching windows (batches still respect MaxBatch). The
// force mark survives partial dispatches — a key's remainder keeps
// draining instead of re-arming a fresh window.
func (d *Daemon) Flush() {
	d.mu.Lock()
	for _, k := range d.keyOrder {
		d.forced[k] = true
	}
	d.mu.Unlock()
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// CacheStats reports session-cache counters (builds, hits, evictions,
// resident bytes).
func (d *Daemon) CacheStats() (builds, hits, evictions int, bytes int64) {
	return d.cache.stats()
}

// Batches reports how many ensemble batches have completed.
func (d *Daemon) Batches() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.batches
}

// Close stops accepting jobs, fails everything still queued with
// CodeShutdown, and waits for the loop (including a batch in flight)
// to finish.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.wg.Wait()
		return
	}
	d.closed = true
	d.mu.Unlock()
	close(d.quit)
	d.wg.Wait()

	d.mu.Lock()
	var orphans []*job
	for _, k := range d.keyOrder {
		orphans = append(orphans, d.pending[k]...)
		delete(d.pending, k)
		delete(d.oldest, k)
		delete(d.forced, k)
	}
	d.keyOrder = nil
	d.mu.Unlock()
	for _, j := range orphans {
		d.finishJob(j, Errf(CodeShutdown, "daemon closed before the job ran"), 0, 0)
	}
}

// loop is the single drain goroutine: take the next ready batch, run
// it, repeat; otherwise sleep until a submission or the earliest
// batching-window expiry.
func (d *Daemon) loop() {
	for {
		batch, wait := d.nextBatch()
		if batch != nil {
			d.runBatch(batch)
			continue
		}
		var timer <-chan time.Time
		if wait >= 0 {
			timer = d.cfg.Clock.After(wait)
		}
		select {
		case <-d.wake:
		case <-timer:
		case <-d.quit:
			return
		}
	}
}

// nextBatch pops the first ready batch in key-arrival order: a full
// queue (>= MaxBatch) dispatches immediately, an expired window
// dispatches whatever is waiting. When nothing is ready it returns the
// wait until the earliest window expiry (-1 when the queue is empty).
// Key order is a FIFO slice, never a map walk, so grouping is
// deterministic for a given submission order.
func (d *Daemon) nextBatch() ([]*job, time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Clock.Now()
	wait := time.Duration(-1)
	for i, k := range d.keyOrder {
		q := d.pending[k]
		deadline := d.oldest[k].Add(d.cfg.Window)
		if len(q) < d.cfg.MaxBatch && !d.forced[k] && deadline.After(now) {
			if w := deadline.Sub(now); wait < 0 || w < wait {
				wait = w
			}
			continue
		}
		n := len(q)
		if n > d.cfg.MaxBatch {
			n = d.cfg.MaxBatch
		}
		batch := q[:n:n]
		if n == len(q) {
			d.pending[k] = nil
			delete(d.pending, k)
			delete(d.oldest, k)
			delete(d.forced, k)
			d.keyOrder = append(d.keyOrder[:i], d.keyOrder[i+1:]...)
		} else {
			d.pending[k] = q[n:]
			// The remainder starts a fresh window.
			d.oldest[k] = now
		}
		for _, j := range batch {
			j.status.State = StateRunning
		}
		return batch, 0
	}
	return nil, wait
}

// runBatch executes one ensemble: acquire (or build) the key's
// session, pre-validate each job's event against the built mesh so a
// bad event fails alone, then stream one RunBatch over the survivors.
func (d *Daemon) runBatch(batch []*job) {
	key := batch[0].res.key
	sess, err := d.cache.acquire(key, func() (*core.Session, error) {
		cfg, err := configFor(key, batch[0].res.spec, d.cfg.Workers)
		if err != nil {
			return nil, err
		}
		s, err := core.NewSession(cfg)
		if err != nil {
			return nil, Errf(CodeRunFailed, "building session %s: %v", key, err)
		}
		return s, nil
	})
	if err != nil {
		if CodeOf(err) == "" {
			err = Errf(CodeRunFailed, "session %s: %v", key, err)
		}
		for _, j := range batch {
			d.finishJob(j, err, len(batch), 0)
		}
		return
	}

	// Per-job event validation against the built mesh: an event in the
	// fluid core (or outside the globe) fails its own job only.
	live := batch[:0:0]
	for _, j := range batch {
		if evErr := sess.CheckEvent(j.res.event); evErr != nil {
			d.finishJob(j, Errf(CodeBadEvent, "job %s: %v", j.id, evErr), len(batch), 0)
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}

	// A station name reused across jobs with different coordinates
	// would poison the whole ensemble (RunBatch rejects the ambiguous
	// union), so detect it up front and fail only the latecomer.
	live = d.dropStationConflicts(live)
	if len(live) == 0 {
		return
	}

	scs := make([]core.Scenario, len(live))
	for i, j := range live {
		scs[i] = core.Scenario{Name: j.id, Event: j.res.event, Stations: j.res.stations}
	}
	reps, err := sess.RunBatchStream(scs, d.cfg.ChunkSamples, func(ch core.StreamChunk) {
		j := live[ch.Field]
		j.sinkMu.Lock()
		defer j.sinkMu.Unlock()
		if j.sinkDead {
			return
		}
		if err := j.sink.Chunk(j.id, ch); err != nil {
			j.sinkDead = true
			return
		}
		if ch.Last {
			j.samples = ch.Start + len(ch.X)
		}
	})
	if err != nil {
		for _, j := range live {
			d.finishJob(j, Errf(CodeRunFailed, "batch %s: %v", key, err), len(live), 0)
		}
		return
	}
	d.mu.Lock()
	d.batches++
	d.mu.Unlock()
	for i, j := range live {
		var jerr error
		if j.sinkDead {
			jerr = Errf(CodeClientGone, "job %s: client disconnected mid-stream", j.id)
		}
		d.finishJob(j, jerr, len(live), reps[i].Result.SourceStepsPerSec)
	}
}

// dropStationConflicts fails any job whose station set redefines a
// name an earlier job of the batch already uses with a different
// definition (coordinates or network: the rule core.Session applies to
// the receiver union) and returns the survivors.
func (d *Daemon) dropStationConflicts(live []*job) []*job {
	byName := map[string]stations.Station{}
	keep := live[:0:0]
	for _, j := range live {
		conflict := ""
		for _, st := range j.res.stations {
			if prev, have := byName[st.Name]; have && prev != st {
				conflict = st.Name
				break
			}
		}
		if conflict != "" {
			d.finishJob(j, Errf(CodeBadRequest,
				"job %s: station %q conflicts with an earlier job in the batch", j.id, conflict), len(live), 0)
			continue
		}
		for _, st := range j.res.stations {
			byName[st.Name] = st
		}
		keep = append(keep, j)
	}
	return keep
}

// finishJob records a job's terminal state and notifies its sink.
func (d *Daemon) finishJob(j *job, err error, batchSize int, srcStepsPerSec float64) {
	d.mu.Lock()
	st := &j.status
	st.BatchSize = batchSize
	st.SourceStepsPerSec = srcStepsPerSec
	j.sinkMu.Lock()
	st.Samples = j.samples
	j.sinkMu.Unlock()
	if err != nil {
		st.State = StateFailed
		st.ErrCode = CodeOf(err)
		st.ErrMsg = err.Error()
	} else {
		st.State = StateDone
	}
	status := *st
	d.mu.Unlock()
	close(j.done)
	if j.sink != nil {
		j.sink.Done(status)
	}
}
