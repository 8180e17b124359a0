// Command specfemd is the simulation daemon: it owns a keyed session
// cache of built meshes, accepts scenario jobs over a line-delimited
// JSON protocol (unix socket or stdio), groups compatible jobs into
// multi-source ensemble batches, and streams seismogram chunks back as
// the integrator advances. See DESIGN.md "Simulation as a service".
//
// Serve on a socket (specfem ctl is the matching client):
//
//	specfemd -socket /tmp/specfemd.sock -max-batch 4 -window 50ms
//
// Serve one connection on stdin/stdout:
//
//	specfemd -stdio
//
// Self-test (used by CI): run an in-process daemon over an in-memory
// connection, submit 3 jobs (two sharing a compatibility key, one
// apart), and verify every streamed seismogram reassembles
// bit-identical to its direct one-shot core.Run:
//
//	specfemd -selftest
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"specglobe/internal/core"
	"specglobe/internal/service"
	"specglobe/internal/solver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("specfemd: ")

	var (
		socket   = flag.String("socket", "", "unix socket path to listen on")
		stdio    = flag.Bool("stdio", false, "serve a single session on stdin/stdout")
		selftest = flag.Bool("selftest", false, "run the in-process smoke test and exit")
		maxBatch = flag.Int("max-batch", 4, "max ensemble size S per batch")
		window   = flag.Duration("window", 50*time.Millisecond, "max wait before dispatching a partial batch")
		budgetMB = flag.Int64("mem-budget-mb", 0, "session cache budget in MiB of mesh (0 = unlimited)")
		workers  = flag.Int("workers", 0, "solver sweeps computing at once (0 = GOMAXPROCS)")
		chunk    = flag.Int("chunk", 32, "streamed samples per chunk")
	)
	flag.Parse()

	cfg := service.Config{
		MaxBatch:     *maxBatch,
		Window:       *window,
		MemoryBudget: *budgetMB << 20,
		Workers:      *workers,
		ChunkSamples: *chunk,
	}

	if *selftest {
		if err := runSelftest(cfg); err != nil {
			log.Fatalf("selftest FAILED: %v", err)
		}
		fmt.Println("selftest ok")
		return
	}

	d := service.New(cfg)
	defer d.Close()
	switch {
	case *stdio:
		if err := service.Serve(d, stdioConn{}); err != nil {
			log.Fatal(err)
		}
	case *socket != "":
		_ = os.Remove(*socket)
		l, err := net.Listen("unix", *socket)
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		log.Printf("listening on %s (max-batch %d, window %v)", *socket, *maxBatch, *window)
		if err := service.ListenAndServe(d, l); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("need -socket, -stdio or -selftest")
	}
}

// stdioConn adapts stdin/stdout to the io.ReadWriter Serve wants.
type stdioConn struct{}

func (stdioConn) Read(p []byte) (int, error)  { return os.Stdin.Read(p) }
func (stdioConn) Write(p []byte) (int, error) { return os.Stdout.Write(p) }

// runSelftest exercises the full pipeline in process: daemon, wire
// protocol, batching, streaming, and the bit-identity contract.
func runSelftest(cfg service.Config) error {
	cfg.MaxBatch = 2
	cfg.Window = 50 * time.Millisecond
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	cfg.ChunkSamples = 4
	d := service.New(cfg)
	defer d.Close()

	client, server := net.Pipe()
	go func() {
		defer server.Close()
		_ = service.Serve(d, server)
	}()
	defer client.Close()

	job := func(name string, lat float64, steps int) service.JobSpec {
		return service.JobSpec{
			Name: name, Model: "earthlike", NexXi: 4, Steps: steps,
			Event: &service.EventSpec{
				LatDeg: lat, LonDeg: -63, DepthM: 150e3,
				Mrr: 1e20, Mtt: -0.5e20, Mpp: -0.5e20, Mrt: 0.3e20,
				HalfDurationSec: 20,
			},
			Stations: []service.StationSpec{{Name: "ANMO"}, {Name: "HRV"}},
		}
	}
	// Two jobs share a compatibility key (one S=2 ensemble), the third
	// differs in step count and runs apart.
	specs := []service.JobSpec{job("s1", -27, 8), job("s2", -20, 8), job("s3", -27, 12)}

	enc := json.NewEncoder(client)
	dec := json.NewDecoder(client)
	byID := map[string]service.JobSpec{}
	chunks := map[string][]solver.Chunk{}
	dones := map[string]service.JobStatus{}
	// net.Pipe is synchronous: submit from a goroutine while the main
	// loop drains responses, as a real client would.
	go func() {
		for i := range specs {
			if err := enc.Encode(service.Request{Op: "submit", Job: &specs[i]}); err != nil {
				return
			}
		}
	}()
	for len(dones) < len(specs) {
		var r service.Response
		if err := dec.Decode(&r); err != nil {
			return fmt.Errorf("reading response: %w", err)
		}
		switch r.Type {
		case "accepted":
			byID[r.ID] = specs[len(byID)] // accepted responses arrive in submit order
		case "chunk":
			chunks[r.ID] = append(chunks[r.ID], solver.Chunk{
				Name: r.Station, Start: r.Start, Dt: r.Dt,
				RecordEvery: r.RecordEvery, X: r.X, Y: r.Y, Z: r.Z, Last: r.Last,
			})
		case "done":
			if r.Status == nil || r.Status.State != service.StateDone {
				return fmt.Errorf("job %s failed: %+v", r.ID, r.Status)
			}
			dones[r.ID] = *r.Status
		case "error":
			return fmt.Errorf("wire error: %s: %s", r.Code, r.Error)
		}
	}

	batched := 0
	for id, st := range dones {
		sp := byID[id]
		got, err := reassemble(chunks[id])
		if err != nil {
			return fmt.Errorf("job %s (%s): %w", id, sp.Name, err)
		}
		dcfg, err := service.DirectConfig(sp, cfg.Workers)
		if err != nil {
			return err
		}
		rep, err := core.Run(dcfg)
		if err != nil {
			return fmt.Errorf("direct run of %s: %w", sp.Name, err)
		}
		if err := identical(rep.Result.Seismograms, got); err != nil {
			return fmt.Errorf("job %s (%s): %w", id, sp.Name, err)
		}
		if st.BatchSize == 2 {
			batched++
		}
		fmt.Printf("job %s (%s): %d stations, %d samples, S=%d, %.1f src-steps/s — streamed == direct\n",
			id, sp.Name, len(got), st.Samples, st.BatchSize, st.SourceStepsPerSec)
	}
	if batched != 2 {
		return fmt.Errorf("%d jobs rode the S=2 batch, want 2", batched)
	}
	return nil
}

// reassemble concatenates chunks per station, enforcing the
// append-only contract.
func reassemble(chs []solver.Chunk) (map[string]*solver.Seismogram, error) {
	out := map[string]*solver.Seismogram{}
	for _, ch := range chs {
		sg := out[ch.Name]
		if sg == nil {
			sg = &solver.Seismogram{Name: ch.Name, Dt: ch.Dt, RecordEvery: ch.RecordEvery}
			out[ch.Name] = sg
		}
		if ch.Start != len(sg.X) {
			return nil, fmt.Errorf("station %s: chunk at %d after %d samples (not append-only)", ch.Name, ch.Start, len(sg.X))
		}
		sg.X = append(sg.X, ch.X...)
		sg.Y = append(sg.Y, ch.Y...)
		sg.Z = append(sg.Z, ch.Z...)
	}
	return out, nil
}

// identical asserts bit-identity between the direct seismograms and
// the streamed reassembly, and that the signal is non-trivial.
func identical(want map[string]*solver.Seismogram, got map[string]*solver.Seismogram) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d stations streamed, want %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil || len(g.X) != len(w.X) {
			return fmt.Errorf("station %s: missing or wrong length", name)
		}
		peak := float32(0)
		for i := range w.X {
			if g.X[i] != w.X[i] || g.Y[i] != w.Y[i] || g.Z[i] != w.Z[i] {
				return fmt.Errorf("station %s sample %d: streamed != direct", name, i)
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
		if peak == 0 {
			return fmt.Errorf("station %s: all-zero trace, vacuous check", name)
		}
	}
	return nil
}

var _ io.ReadWriter = stdioConn{}
