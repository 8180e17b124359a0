package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"specglobe/internal/core"
	"specglobe/internal/service"
)

// runCtl is the specfemctl client mode (`specfem ctl ...`): it dials a
// running specfemd socket, submits one scenario job, and appends each
// streamed chunk to its station's .sem file the moment it arrives —
// the files grow monotonically with the integrator and are complete
// when the job's done line lands; there is no end-of-run rewrite. The
// rows come from core.WriteSemRows, as the one-shot files' do; the first
// write, flush or close error ends the run with a non-zero status.
func runCtl(args []string) {
	fs := flag.NewFlagSet("specfem ctl", flag.ExitOnError)
	var (
		socket  = fs.String("socket", "/tmp/specfemd.sock", "specfemd unix socket")
		model   = fs.String("model", "prem", "earth model: prem, prem_noocean, earthlike")
		nex     = fs.Int("nex", 8, "NEX_XI: spectral elements per chunk side")
		nproc   = fs.Int("nproc", 1, "NPROC_XI: mesh slices per chunk side")
		steps   = fs.Int("steps", 100, "number of time steps")
		lat     = fs.Float64("lat", -27.0, "event latitude (deg)")
		lon     = fs.Float64("lon", -63.0, "event longitude (deg)")
		depth   = fs.Float64("depth", 150e3, "event depth (m)")
		m0      = fs.Float64("m0", 1e20, "scalar moment (N*m)")
		halfDur = fs.Float64("halfduration", 20, "source half duration (s)")
		kernel  = fs.String("kernel", "", "force kernel: vec4 (default; AVX2 assembly where the daemon's host has it) or scalar")
		stats   = fs.String("stations", "ANMO,HRV,KIP", "comma-separated reference station names")
		out     = fs.String("out", "seismograms", "directory for streamed ASCII seismograms")
		name    = fs.String("name", "ctl-job", "job name")
	)
	fs.Parse(args)

	var stSpecs []service.StationSpec
	for _, n := range strings.Split(*stats, ",") {
		if n = strings.TrimSpace(n); n != "" {
			stSpecs = append(stSpecs, service.StationSpec{Name: n})
		}
	}
	spec := service.JobSpec{
		Name: *name, Model: *model, NexXi: *nex, NProcXi: *nproc,
		Steps: *steps, Kernel: *kernel,
		Event: &service.EventSpec{
			LatDeg: *lat, LonDeg: *lon, DepthM: *depth,
			Mrr: *m0, Mtt: -*m0 / 2, Mpp: -*m0 / 2,
			HalfDurationSec: *halfDur,
		},
		Stations: stSpecs,
	}

	conn, err := net.DialTimeout("unix", *socket, 5*time.Second)
	if err != nil {
		log.Fatalf("dialing %s: %v (is specfemd running?)", *socket, err)
	}
	defer conn.Close()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(conn)
	if err := enc.Encode(service.Request{Op: "submit", Job: &spec}); err != nil {
		log.Fatal(err)
	}

	// Streamed chunks append to open per-station files, flushed per
	// chunk: samples hit disk as the integrator advances.
	type semFile struct {
		f *os.File
		w *bufio.Writer
	}
	files := map[string]semFile{}
	jobID := ""
	for {
		var r service.Response
		if err := dec.Decode(&r); err != nil {
			log.Fatalf("reading response: %v", err)
		}
		switch r.Type {
		case "accepted":
			jobID = r.ID
			fmt.Printf("accepted as %s (key %s)\n", r.ID, r.Key)
		case "chunk":
			sf, ok := files[r.Station]
			if !ok {
				f, err := os.Create(filepath.Join(*out, r.Station+".sem"))
				if err != nil {
					log.Fatal(err)
				}
				sf = semFile{f, bufio.NewWriter(f)}
				files[r.Station] = sf
			}
			err := core.WriteSemRows(sf.w, r.Start, r.Dt, r.X, r.Y, r.Z)
			if err == nil {
				err = sf.w.Flush()
			}
			if err != nil {
				log.Fatalf("writing %s.sem: %v", r.Station, err)
			}
		case "done":
			st := r.Status
			if st == nil || st.State != service.StateDone {
				log.Fatalf("job %s failed: %s: %s", jobID, r.Code, r.Error)
			}
			fmt.Printf("done: %d samples/station, batch S=%d, %.1f src-steps/s\n",
				st.Samples, st.BatchSize, st.SourceStepsPerSec)
			for name, sf := range files {
				if err := sf.f.Close(); err != nil {
					log.Fatalf("closing %s.sem: %v", name, err)
				}
			}
			fmt.Printf("wrote %d streamed seismograms to %s\n", len(files), *out)
			return
		case "error":
			log.Fatalf("%s: %s", r.Code, r.Error)
		}
	}
}
