// Scaling: the section 5 study at laptop scale — sweep NPROC_XI at a
// fixed resolution (strong scaling of a fixed mesh over more simulated
// ranks) and report per-rank work, communication volume, and the IPM-
// style communication fraction that the paper found to stay below ~5%.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"
	"time"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/perfmodel"
	"specglobe/internal/solver"
)

func main() {
	log.SetFlags(0)

	model := earthmodel.EarthLike()

	const steps = 25
	fmt.Printf("scaling sweep (%d steps); paper comm fractions: 1.9%%-4.2%%\n", steps)
	fmt.Println("halo S/V = halo boundary points per element, mean over ranks (the")
	fmt.Println("surface-to-volume ratio mesh doubling changes; dbl rows coarsen the")
	fmt.Println("mesh 2x below 5200 km, and also below 3000 km where the slicing allows)")
	fmt.Println()
	fmt.Printf("%6s %6s %6s %10s %9s %12s %12s %10s %10s\n",
		"NEX", "NPROC", "ranks", "elem/rank", "halo S/V", "wall", "msgs", "MB sent", "comm frac")

	var samples []perfmodel.CommSample
	for _, sweep := range []struct {
		nex, nproc int
		doublings  []float64
		auto       bool
	}{
		{4, 1, nil, false}, {4, 2, nil, false}, {8, 1, nil, false}, {8, 2, nil, false},
		{8, 1, []float64{5200e3, 3000e3}, false}, {8, 2, []float64{5200e3}, false},
		{8, 1, nil, true}, // schedule derived from the wavelength profile
	} {
		nex, nproc := sweep.nex, sweep.nproc
		cfg := meshfem.Config{
			NexXi: nex, NProcXi: nproc, Model: model, Doublings: sweep.doublings,
		}
		if sweep.auto {
			cfg.AutoDoubling = &meshfem.AutoDoubling{}
		}
		g, err := meshfem.Build(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if sweep.auto {
			fmt.Printf("auto row: derived doubling radii %v (wavelength profile, paper-rule period)\n",
				g.Cfg.Doublings)
		}
		loc, err := g.LocateLatLonDepth(0, 0, 120e3)
		if err != nil {
			log.Fatal(err)
		}
		const m0 = 1e20
		src := solver.Source{
			Rank: loc.Rank, Kind: loc.Kind, Elem: loc.Elem, Ref: loc.Ref,
			MomentTensor: [3][3]float64{{m0, 0, 0}, {0, m0, 0}, {0, 0, m0}},
			STF:          solver.GaussianSTF(10, 25),
		}
		t0 := time.Now()
		res, err := solver.Run(&solver.Simulation{
			Locals: g.Locals, Plans: g.Plans, Model: model,
			Sources: []solver.Source{src},
			Opts:    solver.Options{Steps: steps},
		})
		if err != nil {
			log.Fatal(err)
		}
		wall := time.Since(t0)
		stats := mesh.ComputeLoadStats(g.Locals)
		halo := mesh.ComputeHaloStats(g.Locals, g.Plans)
		label := fmt.Sprintf("%6d", nex)
		if len(sweep.doublings) > 0 {
			label = fmt.Sprintf("%3ddbl", nex)
		}
		if sweep.auto {
			label = fmt.Sprintf("%3daut", nex)
		}
		fmt.Printf("%s %6d %6d %10.0f %9.2f %12v %12d %10.1f %9.2f%%\n",
			label, nproc, len(g.Locals), stats.MeanElems, halo.MeanRankSV,
			wall.Round(time.Millisecond),
			res.MPI.Messages, float64(res.MPI.BytesSent)/1e6,
			100*res.Perf.CommFraction)
		if len(sweep.doublings) == 0 && !sweep.auto {
			// The two-term model's res^2 halo scaling describes the
			// uniform mesh; doubled rows are shown but not fitted.
			samples = append(samples, perfmodel.CommSample{
				P: len(g.Locals), Res: float64(nex),
				TotalComm: res.Perf.TotalCommTime().Seconds(),
			})
		}
	}

	if cm, err := perfmodel.FitCommModel(samples); err == nil {
		fmt.Printf("\ncomm model fit: T = %.3g*res^2*sqrt(P) + %.3g*P\n", cm.C1, cm.C2)
		fmt.Println("per-core communication time (model) at the paper's scales:")
		for _, sc := range []struct {
			p   int
			res float64
		}{{12150, 1440}, {62000, 4848}} {
			fmt.Printf("  P=%6d res=%4.0f -> %.3g s/core (paper model: 599 s and 28K s on Franklin-class hardware)\n",
				sc.p, sc.res, cm.PerCoreComm(sc.p, sc.res))
		}
	}

	fmt.Println("\nNote: simulated ranks are goroutines on one machine, so absolute")
	fmt.Println("times differ from the paper; the scaling *shape* (compute-dominated,")
	fmt.Println("single-digit comm fraction) is the reproduced result.")
}
