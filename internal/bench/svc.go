package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"specglobe/internal/service"
)

// Daemon configuration of service_burst (fixed; later issues refer to
// it).
const (
	svcMaxBatch     = 4
	svcWindow       = 25 * time.Millisecond
	svcChunkSamples = 8
	svcClients      = 2
)

// jobTrack is the client's view of one submitted job.
type jobTrack struct {
	spec      service.JobSpec
	submit    time.Time
	accepted  time.Time
	first     time.Time // first chunk line
	done      time.Time
	status    *service.JobStatus
	got       map[string]*series
	ordered   bool
	chunkSeen bool
}

// client is one connection: it submits its share of a burst and a
// reader goroutine decodes every response line.
type client struct {
	conn net.Conn
	enc  *json.Encoder

	mu       sync.Mutex
	pending  []*jobTrack          // submitted, not yet accepted (FIFO: accepted lines arrive in submit order)
	byID     map[string]*jobTrack // accepted
	early    map[string][]service.Response
	lines    int
	bytes    int64
	decode   time.Duration
	errs     []string
	doneCh   chan struct{} // one token per done line
	readerWG sync.WaitGroup
}

func newClient(conn net.Conn, capacity int) *client {
	cl := &client{conn: conn, enc: json.NewEncoder(conn), byID: map[string]*jobTrack{},
		early: map[string][]service.Response{},
		// Sized to the number of jobs the connection will ever carry,
		// so the reader never blocks on a slow waiter.
		doneCh: make(chan struct{}, capacity)}
	cl.readerWG.Add(1)
	go cl.read()
	return cl
}

// read decodes response lines until the connection closes.
func (cl *client) read() {
	defer cl.readerWG.Done()
	sc := bufio.NewScanner(cl.conn)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		now := time.Now()
		line := sc.Bytes()
		var resp service.Response
		err := json.Unmarshal(line, &resp)
		spent := time.Since(now)
		cl.mu.Lock()
		cl.lines++
		cl.bytes += int64(len(line)) + 1
		cl.decode += spent
		if err != nil {
			cl.errs = append(cl.errs, fmt.Sprintf("undecodable line: %v", err))
			cl.mu.Unlock()
			continue
		}
		cl.handle(&resp, now)
		cl.mu.Unlock()
	}
}

// handle applies one response; cl.mu is held.
func (cl *client) handle(resp *service.Response, now time.Time) {
	switch resp.Type {
	case "accepted":
		if len(cl.pending) == 0 {
			cl.errs = append(cl.errs, "accepted line without a pending submit")
			return
		}
		j := cl.pending[0]
		cl.pending = cl.pending[1:]
		j.accepted = now
		cl.byID[resp.ID] = j
		// The daemon may dispatch a full batch before the accepted line
		// is written; replay anything that overtook it.
		for _, e := range cl.early[resp.ID] {
			cl.handle(&e, now)
		}
		delete(cl.early, resp.ID)
	case "chunk", "done":
		j := cl.byID[resp.ID]
		if j == nil {
			cl.early[resp.ID] = append(cl.early[resp.ID], *resp)
			return
		}
		if resp.Type == "done" {
			j.done, j.status = now, resp.Status
			cl.doneCh <- struct{}{}
			return
		}
		if !j.chunkSeen {
			j.chunkSeen, j.first = true, now
		}
		s := j.got[resp.Station]
		if s == nil {
			s = &series{}
			j.got[resp.Station] = s
		}
		if resp.Start != len(s.X) {
			j.ordered = false
		}
		s.X, s.Y, s.Z = append(s.X, resp.X...), append(s.Y, resp.Y...), append(s.Z, resp.Z...)
	case "error":
		cl.errs = append(cl.errs, fmt.Sprintf("error line: %s %s", resp.Code, resp.Error))
		if len(cl.pending) > 0 && resp.ID == "" {
			// A rejected submit never reaches "done": release its waiter.
			cl.pending = cl.pending[1:]
			cl.doneCh <- struct{}{}
		}
	}
}

// submit sends one job.
func (cl *client) submit(spec service.JobSpec) (*jobTrack, error) {
	j := &jobTrack{spec: spec, got: map[string]*series{}, ordered: true}
	cl.mu.Lock()
	cl.pending = append(cl.pending, j)
	j.submit = time.Now()
	cl.mu.Unlock()
	return j, cl.enc.Encode(service.Request{Op: "submit", Job: &spec})
}

// burstResult is one burst as the clients saw it.
type burstResult struct {
	wall float64 // first submit → last done
	jobs []*jobTrack
}

// runBurst submits jobs round-robin over the clients (each client
// writes its share back to back, the clients run concurrently) and
// waits for every done line: a closed loop of len(clients) callers with
// all jobs outstanding at once.
func runBurst(clients []*client, jobs []service.JobSpec, chk *checker) burstResult {
	tracks := make([]*jobTrack, len(jobs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := ci; i < len(jobs); i += len(clients) {
				j, err := cl.submit(jobs[i])
				tracks[i] = j
				if err != nil {
					continue // counted below: the job never reaches done
				}
				n++
			}
			for ; n > 0; n-- {
				<-cl.doneCh
			}
		}()
	}
	wg.Wait()
	res := burstResult{wall: time.Since(t0).Seconds(), jobs: tracks}
	for i, j := range tracks {
		ok := j != nil && j.status != nil && j.status.State == service.StateDone
		if !chk.ok(ok, "job %s did not reach done: %+v", jobs[i].Name, statusOf(j)) {
			continue
		}
		want := jobs[i].Steps
		complete, finite := len(j.got) == len(jobs[i].Stations), true
		for _, s := range j.got {
			if len(s.X) != want || len(s.Y) != want || len(s.Z) != want {
				complete = false
			}
			if !finite32(s.X) || !finite32(s.Y) || !finite32(s.Z) {
				finite = false
			}
		}
		chk.ok(complete && j.ordered && j.status.Samples == want,
			"job %s: streamed series incomplete or out of order", jobs[i].Name)
		chk.ok(finite, "job %s: non-finite streamed samples", jobs[i].Name)
	}
	return res
}

func statusOf(j *jobTrack) any {
	if j == nil || j.status == nil {
		return "no status"
	}
	return *j.status
}

// serviceRep is one service_burst repetition: a fresh daemon behind a
// unix socket, a cold burst (every key builds its session), then a warm
// burst of new events on the same keys.
func (c *runCtx) serviceRep(parent int, scs []Scenario) sample {
	out := sample{near: map[string]series{}, extra: map[string]float64{}, byJob: map[string]map[string]*series{}}
	cold := burstJobs(c.sz, scs[:8], "cold")
	warm := burstJobs(c.sz, scs[8:16], "warm")

	t0, cpu0 := time.Now(), cpuSeconds()
	var d *service.Daemon
	c.tr.Do(parent, "service", "New", func(int) {
		d = service.New(service.Config{MaxBatch: svcMaxBatch, Window: svcWindow,
			ChunkSamples: svcChunkSamples, Workers: c.workers})
	})
	// A relative socket path: the checkout may sit deeper than a unix
	// socket address can hold.
	sock := filepath.Join(c.scratch, "sb.sock")
	l, err := net.Listen("unix", sock)
	if !c.chk.err(err, "listen") {
		d.Close()
		return sample{}
	}
	var serveWG sync.WaitGroup
	serveWG.Add(1)
	go func() {
		defer serveWG.Done()
		service.ListenAndServe(d, l) // returns when l closes
	}()
	clients := make([]*client, 0, svcClients)
	for i := 0; i < svcClients; i++ {
		conn, err := net.Dial("unix", sock)
		if !c.chk.err(err, "dial") {
			break
		}
		clients = append(clients, newClient(conn, len(cold)+len(warm)))
	}
	ready := time.Since(t0).Seconds()
	shutdown := func() {
		for _, cl := range clients {
			cl.conn.Close()
			cl.readerWG.Wait()
		}
		l.Close()
		serveWG.Wait()
		d.Close()
	}
	if len(clients) != svcClients {
		shutdown()
		return sample{}
	}

	var coldRes, warmRes burstResult
	c.tr.Do(parent, "service", "cold_burst", func(int) { coldRes = runBurst(clients, cold, c.chk) })
	out.setup = time.Since(t0).Seconds()
	c.tr.Do(parent, "service", "warm_burst", func(int) { warmRes = runBurst(clients, warm, c.chk) })
	out.tts, out.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	out.solve = warmRes.wall
	out.setups, out.solves = []float64{out.setup}, []float64{out.solve}
	out.steps = burstSourceSteps(warm)

	firsts, lats, submits := []float64{}, []float64{}, []float64{}
	var solver float64
	var srcRate []float64
	seenBatch := map[string]bool{}
	for _, j := range warmRes.jobs {
		if j == nil || j.status == nil || !j.chunkSeen {
			continue
		}
		firsts = append(firsts, j.first.Sub(j.submit).Seconds())
		lats = append(lats, j.done.Sub(j.submit).Seconds())
		submits = append(submits, j.accepted.Sub(j.submit).Seconds()*1e6)
		// One solver run per (key, batch): jobs of a batch share the
		// batch's throughput figure, so count each figure once.
		key := fmt.Sprintf("%s/%d/%.9g", j.status.Key, j.status.BatchSize, j.status.SourceStepsPerSec)
		if !seenBatch[key] && j.status.SourceStepsPerSec > 0 {
			seenBatch[key] = true
			solver += float64(j.spec.Steps*j.status.BatchSize) / j.status.SourceStepsPerSec
			srcRate = append(srcRate, j.status.SourceStepsPerSec)
		}
	}
	out.firstChunk = Median(firsts)

	builds, hits, evictions, cacheBytes := d.CacheStats()
	batches := d.Batches()
	c.chk.ok(builds == 3 && hits == 3, "session cache: %d builds, %d hits (want 3 and 3)", builds, hits)
	ex := out.extra
	ex["service.daemon_ready_s"] = ready
	ex["service.cold_burst_s"] = coldRes.wall
	ex["service.first_chunk_p50_s"] = out.firstChunk
	ex["service.job_latency_p50_s"] = Median(lats)
	ex["service.job_latency_max_s"] = maxOf(lats)
	ex["service.submit_us"] = Median(submits)
	ex["service.session_builds"] = float64(builds)
	ex["service.session_hits"] = float64(hits)
	ex["service.evictions"] = float64(evictions)
	ex["service.batches"] = float64(batches)
	if batches > 0 {
		ex["service.mean_batch_size"] = float64(len(cold)+len(warm)) / float64(batches)
	}
	ex["service.cache_mb"] = float64(cacheBytes) / (1 << 20)
	ex["service.batch_src_steps_per_s"] = mean(srcRate)
	ex["service.non_solver_s"] = warmRes.wall - solver

	// Near-field traces of both bursts, for the misfit.
	for _, br := range []burstResult{coldRes, warmRes} {
		for _, j := range br.jobs {
			if j == nil {
				continue
			}
			out.byJob[j.spec.Name] = j.got
			for _, st := range j.spec.Stations {
				if st.LatDeg == nil {
					continue // catalog station: far field
				}
				s := j.got[st.Name]
				if c.chk.ok(s != nil && energy(s.X, s.Y, s.Z) > 0, "near-field station %s recorded no signal", st.Name) {
					out.near[st.Name] = *s
				}
			}
		}
	}

	out.heapMB = liveHeapMB()
	runtime.KeepAlive(d)
	shutdown()
	for _, cl := range clients {
		ex["service.wire_lines"] += float64(cl.lines)
		ex["service.wire_bytes"] += float64(cl.bytes)
		ex["service.client_decode_s"] += cl.decode.Seconds()
		for _, e := range cl.errs {
			c.chk.ok(false, "client: %s", e)
		}
	}
	return out
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return sum(vs) / float64(len(vs))
}

func maxOf(vs []float64) float64 {
	var m float64
	for _, v := range vs {
		m = max(m, v)
	}
	return m
}
