// Command specfem runs a merged mesher+solver global simulation — the
// equivalent of the paper's single merged application (section 4.1).
//
// Example:
//
//	specfem -nex 8 -nproc 1 -model prem -steps 200 -stations 12 \
//	        -lat -27 -lon -63 -depth 150e3 -out seismograms/
//
// The ctl subcommand is the specfemctl client mode: it submits the
// scenario to a running specfemd daemon over its unix socket and
// appends the streamed seismogram chunks to .sem files as they arrive,
// in the one-shot files' format; a write, flush or close error ends the
// run with a non-zero status:
//
//	specfem ctl -socket /tmp/specfemd.sock -nex 8 -steps 200 -out seismograms/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"specglobe/internal/core"
	"specglobe/internal/earthmodel"
	"specglobe/internal/perfmodel"
	"specglobe/internal/solver"
	"specglobe/internal/stations"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("specfem: ")

	// `specfem ctl ...` is the specfemctl client mode: submit the
	// scenario to a running specfemd instead of solving in-process.
	if len(os.Args) > 1 && os.Args[1] == "ctl" {
		runCtl(os.Args[2:])
		return
	}

	var (
		nex      = flag.Int("nex", 8, "NEX_XI: spectral elements per chunk side")
		nproc    = flag.Int("nproc", 1, "NPROC_XI: mesh slices per chunk side (ranks = 6*nproc^2)")
		modelStr = flag.String("model", "prem", "earth model: prem, prem_noocean, earthlike")
		steps    = flag.Int("steps", 100, "number of time steps")
		record   = flag.Float64("seconds", 0, "simulated seconds (overrides -steps when > 0)")
		nstat    = flag.Int("stations", 8, "number of synthetic global stations (0 = reference GSN subset)")
		lat      = flag.Float64("lat", -27.0, "event latitude (deg)")
		lon      = flag.Float64("lon", -63.0, "event longitude (deg)")
		depth    = flag.Float64("depth", 150e3, "event depth (m)")
		m0       = flag.Float64("m0", 1e20, "scalar moment (N*m)")
		halfDur  = flag.Float64("halfduration", 20, "source half duration (s)")
		att      = flag.Bool("attenuation", false, "enable attenuation")
		rot      = flag.Bool("rotation", false, "enable rotation (Coriolis)")
		grav     = flag.Bool("gravity", false, "enable background gravity")
		ocean    = flag.Bool("oceans", false, "enable ocean load")
		snap     = flag.Bool("snap-stations", false, "locate stations at nearest grid point (fast 4.4 mode)")
		kernel   = flag.String("kernel", "vec4", "force kernel: vec4 (AVX2 assembly where the host has it, the same bits from Go elsewhere) or scalar")
		out      = flag.String("out", "", "directory for ASCII seismograms (empty = skip)")
	)
	flag.Parse()

	model, err := earthmodel.ByName(*modelStr)
	if err != nil {
		log.Fatal(err)
	}

	kv, err := solver.ParseKernel(*kernel)
	if err != nil {
		log.Fatal(err)
	}

	var sts []stations.Station
	if *nstat > 0 {
		sts = stations.GlobalNetwork(*nstat)
	} else {
		sts = stations.ReferenceStations()
	}

	cfg := core.Config{
		NexXi: *nex, NProcXi: *nproc,
		Model:         model,
		Steps:         *steps,
		RecordSeconds: *record,
		Event: core.Event{
			Name: "cli-event", LatDeg: *lat, LonDeg: *lon, DepthM: *depth,
			Mrr: *m0, Mtt: -*m0 / 2, Mpp: -*m0 / 2,
			HalfDurationSec: *halfDur,
		},
		Stations:     sts,
		SnapStations: *snap,
		Attenuation:  *att,
		Rotation:     *rot,
		Gravity:      *grav,
		OceanLoad:    *ocean,
		Kernel:       kv,
	}
	if *record > 0 {
		cfg.Steps = 0
	}

	rep, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("mesh: %d ranks, %d elements, shortest period ~%.1f s (paper rule: %.1f s)\n",
		len(rep.Globe.Locals), rep.Globe.TotalElements(), rep.ShortestPeriod,
		perfmodel.ResolutionToPeriod(float64(*nex)))
	fmt.Printf("load balance: min %d / max %d elements per rank (imbalance %.3f)\n",
		rep.Load.MinElems, rep.Load.MaxElems, rep.Load.Imbalance)
	fmt.Printf("mesher: %v (%d pass(es))\n", rep.MesherTime.Round(1e6), rep.Globe.BuildPasses)
	fmt.Printf("solver: %d steps, dt=%.3f s, wall %v\n",
		rep.Result.Steps, rep.Result.Dt, rep.SolverTime.Round(1e6))
	fmt.Printf("final state: max displacement %.3g m, %d subnormal values\n",
		rep.Result.MaxDisplacement, rep.Result.Subnormals)
	fmt.Printf("worst station location error: %.1f m\n", rep.StationErrors)
	fmt.Print(rep.Result.Perf)
	m := rep.Result.MPI
	fmt.Printf("#   mpi stats  : %d messages, %d bytes; virtual %v = exposed %v + hidden %v\n",
		m.Messages, m.BytesSent, m.VirtualCommTime, m.Exposed(), m.HiddenCommTime)

	if *out != "" {
		if err := core.WriteSeismograms(*out, rep.Result); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d seismograms to %s\n", len(rep.Result.Seismograms), *out)
	}
	_ = os.Stdout.Sync()
}
