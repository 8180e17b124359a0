// Command meshfem runs the mesher standalone, prints mesh statistics
// and optionally writes the legacy per-core file database — the
// MESHFEM3D half of the original two-program pipeline (section 4.1).
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/meshio"
	"specglobe/internal/perfmodel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("meshfem: ")

	var (
		nex       = flag.Int("nex", 8, "NEX_XI: elements per chunk side")
		nproc     = flag.Int("nproc", 1, "NPROC_XI: slices per chunk side")
		twoPass   = flag.Bool("two-pass", false, "legacy mode: run the full generation twice (section 4.4)")
		outDir    = flag.String("out", "", "write the legacy per-core database to this directory")
		doublings = flag.String("doublings", "", "comma-separated doubling radii in km (e.g. 5200,3000)")
		auto      = flag.Bool("auto-doubling", false, "derive the doubling schedule from the PREM wavelength profile")
		period    = flag.Float64("period", 0, "auto-doubling target period in seconds (0: paper rule 256*17/NEX)")
		ppw       = flag.Float64("ppw", 0, "auto-doubling points-per-wavelength budget (0: the paper's 5)")
	)
	flag.Parse()

	cfg := meshfem.Config{
		NexXi: *nex, NProcXi: *nproc,
		Model:            earthmodel.NewPREM(),
		TwoPassMaterials: *twoPass,
	}
	for _, f := range strings.Split(*doublings, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		km, err := strconv.ParseFloat(f, 64)
		if err != nil {
			log.Fatalf("bad -doublings entry %q: %v", f, err)
		}
		cfg.Doublings = append(cfg.Doublings, km*1e3)
	}
	if *auto {
		cfg.AutoDoubling = &meshfem.AutoDoubling{TargetPeriodS: *period, PointsPerWavelength: *ppw}
	}
	g, err := meshfem.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("PREM globe mesh, NEX_XI=%d, NPROC_XI=%d -> %d ranks\n",
		*nex, *nproc, len(g.Locals))
	if len(g.Cfg.Doublings) > 0 {
		how := "configured"
		if *auto && len(cfg.Doublings) == 0 {
			a := cfg.AutoDoubling.Resolved(*nex)
			how = fmt.Sprintf("derived from the wavelength profile (period %.0fs, budget %.1f pts/wavelength)",
				a.TargetPeriodS, a.PointsPerWavelength)
		}
		fmt.Printf("doubling radii (%s):", how)
		for _, d := range g.Cfg.Doublings {
			fmt.Printf(" %.0f km", d/1e3)
		}
		fmt.Println()
	}
	fmt.Printf("build passes: %d\n", g.BuildPasses)
	fmt.Printf("elements: %d total; grid points: %d (per-region DOF sites)\n",
		g.TotalElements(), g.TotalPoints())
	fmt.Printf("shortest resolvable period: ~%.1f s (paper rule 256*17/NEX = %.1f s)\n",
		g.ShortestPeriod, perfmodel.ResolutionToPeriod(float64(*nex)))
	fmt.Printf("stable time step (courant %g): %.4f s\n", mesh.Courant, mesh.StableDt(g.Locals, mesh.Courant))

	stats := mesh.ComputeLoadStats(g.Locals)
	fmt.Printf("load balance: min %d, max %d, mean %.1f elements/rank (imbalance %.3f)\n",
		stats.MinElems, stats.MaxElems, stats.MeanElems, stats.Imbalance)

	// Resolution accounting at the reported shortest period: how many
	// GLL points each layer puts on the shortest wavelength (the ~5
	// points-per-wavelength rule the mesh is sized by).
	rs := mesh.ComputeResolutionStats(g.Locals, g.ShortestPeriod)
	fmt.Printf("resolution at %.0f s: min %.2f pts/wavelength (worst element in %v at r=%.0f km), mean %.1f\n",
		g.ShortestPeriod, rs.MinPts, rs.Worst.Kind, rs.Worst.RadiusM/1e3, rs.MeanPts)
	// Per-layer stable-dt profile beside the resolution audit: dt/min is
	// how far a layer's own stable dt sits above the governing one, which
	// every element steps at.
	globalDt := mesh.StableDt(g.Locals, mesh.Courant)
	fmt.Printf("  %-12s %9s %9s %5s %9s %9s %7s\n",
		"region", "r0 km", "r1 km", "nex", "min pts", "min dt", "dt/min")
	for _, la := range g.LayerAudits(g.ShortestPeriod, mesh.Courant) {
		tag := ""
		if la.Doubling {
			tag = " (doubling)"
		}
		if la.Cube {
			tag = " (central cube)"
		}
		fmt.Printf("  %-12v %9.0f %9.0f %5d %9.2f %8.3fs %6.2fx%s\n",
			la.Region, la.R0/1e3, la.R1/1e3, la.NexXi, la.MinPts,
			la.MinDt, la.MinDt/globalDt, tag)
	}

	var memBytes int64
	for _, l := range g.Locals {
		memBytes += meshio.MeshBytes(l)
	}
	fmt.Printf("mesh memory: %s\n", perfmodel.HumanBytes(float64(memBytes)))

	for rank, p := range g.Plans {
		if rank > 2 && rank < len(g.Plans)-1 {
			continue // print a few representative ranks
		}
		fmt.Printf("rank %3d: %2d neighbors, %6d halo point slots\n",
			rank, p.NeighborCount(), p.BoundaryPoints())
	}

	if *outDir != "" {
		st, err := meshio.WriteAllRanks(*outDir, g.Locals, g.Plans)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("legacy database: %d files, %s in %s\n",
			st.Files, perfmodel.HumanBytes(float64(st.Bytes)), *outDir)
		fmt.Printf("(at 62,976 cores this mode writes %.2fM files — the section 4.1 bottleneck)\n",
			float64(meshio.LegacyFilesPerCore)*62976/1e6)
	}
}
