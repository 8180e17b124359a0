package main

import (
	"fmt"

	"specglobe/internal/experiments"
)

// stringerFunc adapts a plain string to fmt.Stringer.
type stringerFunc string

func (s stringerFunc) String() string { return string(s) }

// experimentList wires every experiment id of DESIGN.md to its runner.
// The quick flag selects smaller sweeps for smoke runs.
func experimentList() []experiment {
	return []experiment{
		{
			id: "FIG5", desc: "disk space vs resolution (legacy mesher->solver database)",
			run: func(quick bool) (fmt.Stringer, error) {
				nex := []int{4, 8, 12, 16}
				if quick {
					nex = []int{4, 8}
				}
				return experiments.Fig5(nex)
			},
		},
		{
			id: "FIG6", desc: "total communication time vs core count",
			run: func(quick bool) (fmt.Stringer, error) {
				nex := []int{8, 12}
				nproc := []int{1, 2}
				steps := 8
				if quick {
					nex = []int{4, 8}
					steps = 4
				}
				return experiments.Fig6(nex, nproc, steps)
			},
		},
		{
			id: "FIG7", desc: "total runtime vs resolution (fixed steps)",
			run: func(quick bool) (fmt.Stringer, error) {
				nex := []int{4, 6, 8, 12, 16}
				steps := 8
				if quick {
					nex = []int{4, 8}
					steps = 4
				}
				return experiments.Fig7(nex, steps)
			},
		},
		{
			id: "COMM%", desc: "communication fraction of the solver main loop",
			run: func(quick bool) (fmt.Stringer, error) {
				nex := []int{8}
				nproc := []int{1, 2}
				steps := 8
				if quick {
					nex = []int{4}
					steps = 4
				}
				return experiments.CommFraction(nex, nproc, steps)
			},
		},
		{
			id: "OVERLAP", desc: "exposed comm: overlapped schedule vs the blocking baseline read off the same run",
			run: func(quick bool) (fmt.Stringer, error) {
				nex := []int{8, 12}
				nproc := []int{1, 2}
				steps := 8
				if quick {
					nex = []int{4}
					nproc = []int{1}
					steps = 4
				}
				r, err := experiments.Overlap(nex, nproc, steps)
				if err != nil {
					return nil, err
				}
				// Per-machine extrapolation: the same schedule under each
				// catalog interconnect.
				m, err := experiments.OverlapMachines(nex[0], nproc[0], steps)
				if err != nil {
					return nil, err
				}
				// Joint sweep: workers x doubling x interconnect together.
				// nex 8 is the smallest resolution that admits the standard
				// two doubling levels, so the joint table pins it even when
				// quick shrinks the main sweep.
				workers := []int{1, 4}
				if quick {
					workers = []int{1}
				}
				j, err := experiments.OverlapJoint(8, 1, steps, workers,
					[]float64{5200e3, 3000e3})
				if err != nil {
					return nil, err
				}
				return stringerFunc(r.String() + m.String() + j.String()), nil
			},
		},
		{
			id: "LTS", desc: "clustered local time stepping: uniform vs doubled vs doubled+LTS on PREM",
			run: func(quick bool) (fmt.Stringer, error) {
				doublings := []float64{5200e3, 3000e3}
				configs := [][2]int{{8, 1}, {16, 2}}
				steps := 8
				if quick {
					configs = [][2]int{{8, 1}}
					steps = 4
				}
				return experiments.LTSAblation(configs, doublings, steps)
			},
		},
		{
			id: "HYBRID", desc: "rank x worker force kernels: speedup vs exposed comm",
			run: func(quick bool) (fmt.Stringer, error) {
				nex, nproc, steps := 8, 1, 8
				workers := []int{1, 2, 4, 8}
				if quick {
					nex, steps = 4, 4
					workers = []int{1, 2, 4}
				}
				return experiments.Hybrid(nex, nproc, workers, steps)
			},
		},
		{
			id: "MESHDBL", desc: "mesh doubling layers: element count, halo S/V, exposed comm",
			run: func(quick bool) (fmt.Stringer, error) {
				// Doubling radii sit in the mid-mantle and outer core of
				// the homogeneous Earth-like test model.
				doublings := []float64{5200e3, 3000e3}
				configs := [][2]int{{8, 1}, {16, 2}}
				steps := 8
				if quick {
					configs = [][2]int{{8, 1}}
					steps = 4
				}
				return experiments.MeshDoubling(configs, doublings, steps)
			},
		},
		{
			id: "MESHRES", desc: "wavelength-derived vs hand-tuned doubling schedules (elements, halo, min pts/wavelength)",
			run: func(quick bool) (fmt.Stringer, error) {
				// Hand-tuned radii as in MESHDBL; the derived schedule
				// comes from the PREM wavelength profile per NEX.
				manual := []float64{5200e3, 3000e3}
				configs := [][2]int{{8, 1}, {16, 2}}
				steps := 6
				if quick {
					configs = [][2]int{{8, 1}}
					steps = 4
				}
				return experiments.MeshResolution(configs, manual, steps)
			},
		},
		{
			id: "MEM37", desc: "memory model + section 6 table (TAB6)",
			run: func(quick bool) (fmt.Stringer, error) {
				nex := []int{4, 8, 12, 16}
				if quick {
					nex = []int{4, 8}
				}
				return experiments.Memory(nex)
			},
		},
		{
			id: "ATT1.8", desc: "attenuation on/off cost factor",
			run: func(quick bool) (fmt.Stringer, error) {
				nex, steps := 8, 10
				if quick {
					nex, steps = 4, 6
				}
				return experiments.Attenuation(nex, steps)
			},
		},
		{
			id: "MESH2X", desc: "merged single-pass vs legacy two-pass mesher",
			run: func(quick bool) (fmt.Stringer, error) {
				nex := 12
				if quick {
					nex = 8
				}
				return experiments.Mesher(nex)
			},
		},
		{
			id: "IOMERGE", desc: "legacy file database vs merged in-memory handoff",
			run: func(quick bool) (fmt.Stringer, error) {
				nex := 8
				if quick {
					nex = 4
				}
				return experiments.IOModes(nex)
			},
		},
		{
			id: "KERNROOF", desc: "kernel x workers roofline sweep: steps/s, Gflop/s, AI, % of peak",
			run: func(quick bool) (fmt.Stringer, error) {
				boxN, globeNex, steps := 6, 8, 20
				workers := []int{1, 4}
				if quick {
					boxN, steps = 4, 4
					workers = []int{1}
				}
				return experiments.KernRoof(boxN, globeNex, steps, workers)
			},
		},
		{
			id: "BATCH", desc: "multi-source ensemble batching: S x kernel, source-steps/s, AI vs S",
			run: func(quick bool) (fmt.Stringer, error) {
				boxN, globeNex, steps := 10, 8, 16
				sizes := []int{1, 2, 4, 8}
				if quick {
					boxN, steps = 4, 4
					sizes = []int{1, 2}
				}
				return experiments.BatchAblation(boxN, globeNex, steps, sizes, 1)
			},
		},
		{
			id: "SERVICE", desc: "simulation-as-a-service daemon vs sequential one-shot runs: jobs/s, src-steps/s",
			run: func(quick bool) (fmt.Stringer, error) {
				nex, steps, jobs, maxBatch := 8, 12, 8, 4
				if quick {
					nex, steps, jobs, maxBatch = 4, 6, 4, 2
				}
				return experiments.Service(nex, steps, jobs, maxBatch, 1)
			},
		},
		{
			id: "SSE20", desc: "force kernels vec4 vs scalar (solver runs), BLAS vs scalar per block",
			run: func(quick bool) (fmt.Stringer, error) {
				nex, steps := 8, 10
				if quick {
					nex, steps = 4, 6
				}
				return experiments.Kernels(nex, steps)
			},
		},
		{
			id: "CM5", desc: "Cuthill-McKee element sorting vs natural/scrambled order",
			run: func(quick bool) (fmt.Stringer, error) {
				nex, steps := 8, 8
				if quick {
					nex, steps = 4, 4
				}
				return experiments.Renumbering(nex, steps)
			},
		},
		{
			id: "STALOC", desc: "legacy nonlinear vs nearest-point station location",
			run: func(quick bool) (fmt.Stringer, error) {
				nex, n := 8, 12
				if quick {
					nex, n = 4, 6
				}
				return experiments.StationLocation(nex, n)
			},
		},
		{
			id: "LOADBAL", desc: "element load balance across ranks",
			run: func(quick bool) (fmt.Stringer, error) {
				nex, nproc := 8, 2
				if quick {
					nex, nproc = 4, 2
				}
				s, err := experiments.LoadBalance(nex, nproc)
				if err != nil {
					return nil, err
				}
				return stringerFunc(fmt.Sprintf(
					"LOADBAL: min %d, max %d, mean %.1f elements/rank -> imbalance %.3f (paper: \"excellent load balancing\")\n",
					s.MinElems, s.MaxElems, s.MeanElems, s.Imbalance)), nil
			},
		},
	}
}
