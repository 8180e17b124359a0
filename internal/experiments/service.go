package experiments

import (
	"fmt"
	"strings"
	"time"

	"specglobe/internal/core"
	"specglobe/internal/service"
)

// The SERVICE ablation measures what the simulation-as-a-service daemon
// buys over the one-shot batch binary: J compatible scenario jobs run
// (a) sequentially through core.Run — each job pays its own mesh build,
// handoff and solve, the only mode the repo had before specfemd — and
// (b) through a daemon, which builds the compatibility key's session
// once, reuses it for every job, and marches the jobs through
// RunBatchStream ensembles of S wavefields per time loop. The comparable
// aggregate is src-steps/sec = jobs x steps / wall over the whole
// workload (meshing included on both sides — a client asking for J
// seismogram sets pays end-to-end time, not solver time).

// ServiceRow is one mode's end-to-end measurement.
type ServiceRow struct {
	// Mode is "one-shot" (sequential core.Run) or "daemon".
	Mode string
	// Batches is how many ensemble batches the daemon dispatched
	// (one-shot rows report Jobs — every job is its own "batch").
	Batches int
	// MaxS is the largest ensemble size S a batch ran at.
	MaxS int
	// Wall is the end-to-end time for the whole workload.
	Wall Timing
	// JobsPerSec is jobs over end-to-end wall.
	JobsPerSec float64
	// SourceStepsPerSec is jobs x steps over end-to-end wall, the
	// aggregate workload throughput.
	SourceStepsPerSec float64
	// Speedup is SourceStepsPerSec over the one-shot row.
	Speedup float64
	// CacheBuilds/CacheHits are the daemon's session-cache counters.
	CacheBuilds, CacheHits int
}

// ServiceResult is the daemon-vs-one-shot ablation.
type ServiceResult struct {
	Nex, Steps, Jobs, MaxBatch, Workers int
	Rows                                []ServiceRow
}

// serviceSpecs builds J compatible jobs (one compatibility key) that
// differ only in event position — the workload shape the batcher
// exists for.
func serviceSpecs(nex, steps, jobs int) []service.JobSpec {
	specs := make([]service.JobSpec, jobs)
	for i := range specs {
		specs[i] = service.JobSpec{
			Name: fmt.Sprintf("svc-%d", i), Model: "earthlike",
			NexXi: nex, Steps: steps,
			Event: &service.EventSpec{
				LatDeg: -30 + 5*float64(i), LonDeg: -63, DepthM: 150e3,
				Mrr: 1e20, Mtt: -0.5e20, Mpp: -0.5e20, Mrt: 0.3e20,
				HalfDurationSec: 20,
			},
			Stations: []service.StationSpec{{Name: "ANMO"}, {Name: "HRV"}},
		}
	}
	return specs
}

// discardSink drains a job's stream without keeping it: the ablation
// measures throughput, the bit-identity tests own correctness.
type discardSink struct{}

func (discardSink) Chunk(string, core.StreamChunk) error { return nil }
func (discardSink) Done(service.JobStatus)               {}

// Service runs the SERVICE ablation: J compatible jobs, one-shot vs
// daemon (a fresh daemon per run, so every run pays its own session
// build).
func Service(nex, steps, jobs, maxBatch, workers int) (*ServiceResult, error) {
	if workers <= 0 {
		workers = 1
	}
	specs := serviceSpecs(nex, steps, jobs)
	oneShot := ServiceRow{Mode: "one-shot", Batches: jobs, MaxS: 1, Speedup: 1}
	daemon := ServiceRow{Mode: "daemon"}
	t, err := bestOf(wall(func() error {
		for _, sp := range specs {
			cfg, err := service.DirectConfig(sp, workers)
			if err != nil {
				return err
			}
			if _, err := core.Run(cfg); err != nil {
				return fmt.Errorf("one-shot %s: %w", sp.Name, err)
			}
		}
		return nil
	}), wall(func() error { return runServiceDaemon(specs, maxBatch, workers, &daemon) }))
	if err != nil {
		return nil, err
	}
	for i, row := range []*ServiceRow{&oneShot, &daemon} {
		row.Wall = t[i]
		row.JobsPerSec = float64(jobs) / t[i].Best.Seconds()
		row.SourceStepsPerSec = float64(jobs*steps) / t[i].Best.Seconds()
	}
	daemon.Speedup = daemon.SourceStepsPerSec / oneShot.SourceStepsPerSec
	return &ServiceResult{Nex: nex, Steps: steps, Jobs: jobs, MaxBatch: maxBatch, Workers: workers,
		Rows: []ServiceRow{oneShot, daemon}}, nil
}

// runServiceDaemon runs the workload through one fresh daemon: submit
// everything (submission is validation only, so the queue holds the
// full workload before the first batch dispatches), flush, wait. It
// fills row's batch and session-cache counts.
func runServiceDaemon(specs []service.JobSpec, maxBatch, workers int, row *ServiceRow) error {
	d := service.New(service.Config{
		MaxBatch: maxBatch,
		Window:   time.Second, // Flush below dispatches; the window never expires
		Workers:  workers,
	})
	defer d.Close()
	ids := make([]string, len(specs))
	for i, sp := range specs {
		id, err := d.Submit(sp, discardSink{})
		if err != nil {
			return fmt.Errorf("daemon submit %s: %w", sp.Name, err)
		}
		ids[i] = id
	}
	d.Flush()
	for _, id := range ids {
		st, ok := d.Wait(id)
		if !ok || st.State != service.StateDone {
			return fmt.Errorf("daemon job %s: %+v", id, st)
		}
		row.MaxS = max(row.MaxS, st.BatchSize)
	}
	row.Batches = d.Batches()
	row.CacheBuilds, row.CacheHits, _, _ = d.CacheStats()
	return nil
}

// String renders the service table.
func (r *ServiceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SERVICE: daemon vs one-shot runs (%d compatible jobs, earthlike nex%d, %d steps, S<=%d, workers=%d)\n",
		r.Jobs, r.Nex, r.Steps, r.MaxBatch, r.Workers)
	fmt.Fprintf(&b, "  %-9s %8s %5s %8s %10s %8s %7s %6s  %s\n",
		"mode", "batches", "maxS", "jobs/s", "src-st/s", "speedup", "builds", "hits", "wall")
	for _, row := range r.Rows {
		builds, hits := "-", "-"
		if row.Mode == "daemon" {
			builds, hits = fmt.Sprint(row.CacheBuilds), fmt.Sprint(row.CacheHits)
		}
		fmt.Fprintf(&b, "  %-9s %8d %5d %8.2f %10.2f %7.2fx %7s %6s  %v\n",
			row.Mode, row.Batches, row.MaxS, row.JobsPerSec, row.SourceStepsPerSec, row.Speedup, builds, hits, row.Wall)
	}
	b.WriteString("  src-st/s = jobs x steps / end-to-end wall, meshing included on both sides.\n")
	b.WriteString("  the daemon builds the compatibility key's session once (builds/hits) and\n")
	b.WriteString("  marches S jobs per time loop; one-shot re-meshes per job. on a 1-CPU host\n")
	b.WriteString("  the margin is dominated by session reuse — the batching term alone is the\n")
	b.WriteString("  BATCH ablation's same-kernel column\n")
	return b.String()
}
