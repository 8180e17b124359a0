// IOModes: the section 4.1 experiment — run the same simulation through
// the legacy two-program pipeline (mesher writes up to 51 files per
// core, solver reads them back) and through the merged in-memory
// application, verify the seismograms are bit-identical, and compare
// the I/O cost.
//
//	go run ./examples/iomodes
package main

import (
	"fmt"
	"log"
	"os"

	"specglobe/internal/core"
	"specglobe/internal/earthmodel"
	"specglobe/internal/meshio"
	"specglobe/internal/perfmodel"
	"specglobe/internal/stations"
)

func main() {
	log.SetFlags(0)

	base := core.Config{
		NexXi: 8, NProcXi: 1,
		Model: earthmodel.EarthLike(),
		Steps: 60,
		Event: core.Event{
			Name: "io-test", LatDeg: -27, LonDeg: -63, DepthM: 150e3,
			Mrr: 1e20, Mtt: -0.5e20, Mpp: -0.5e20, HalfDurationSec: 20,
		},
		Stations: stations.ReferenceStations()[:4],
	}

	fmt.Println("-- merged mode (mesher and solver in one program, section 4.1) --")
	merged, err := core.Run(base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("handoff: %d files, %s stayed in memory; mesher %v, solver %v\n",
		merged.IO.Files, perfmodel.HumanBytes(float64(merged.IO.Bytes)),
		merged.MesherTime.Round(1e6), merged.SolverTime.Round(1e6))

	fmt.Println("\n-- legacy mode (per-core file database) --")
	dir, err := os.MkdirTemp("", "specglobe-iomodes-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	legacyCfg := base
	legacyCfg.LegacyIO = true
	legacyCfg.LegacyDir = dir
	legacy, err := core.Run(legacyCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d files (%d per core), %s written and read back\n",
		legacy.IO.Files, meshio.LegacyFilesPerCore,
		perfmodel.HumanBytes(float64(legacy.IO.Bytes)))

	// The file round trip is bit-exact, so physics must be identical.
	identical := true
	for name, a := range merged.Result.Seismograms {
		b := legacy.Result.Seismograms[name]
		for i := range a.X {
			if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] || a.Z[i] != b.Z[i] {
				identical = false
			}
		}
	}
	fmt.Printf("seismograms bit-identical across modes: %v\n", identical)

	fmt.Println("\n-- extrapolation to production scale --")
	perCore := float64(legacy.IO.Bytes) / float64(len(legacy.Globe.Locals))
	fmt.Printf("at 62,976 cores the legacy mode writes %.2fM files (paper: over 3.2 million)\n",
		float64(meshio.LegacyFilesPerCore)*62976/1e6)
	fmt.Printf("database bytes per core at this resolution: %s\n", perfmodel.HumanBytes(perCore))
	fmt.Println("the merged mode eliminates all of it — zero intermediate files.")
}
