package main

import (
	"fmt"

	"specglobe/internal/experiments"
)

// stringerFunc adapts a plain string to fmt.Stringer.
type stringerFunc string

func (s stringerFunc) String() string { return string(s) }

// pick returns full for the paper-figure sweep and small under -quick.
func pick[T any](quick bool, full, small T) T {
	if quick {
		return small
	}
	return full
}

// doublings are the hand-tuned doubling radii of the doubled-mesh
// ablations: the mid-mantle and the outer core of the homogeneous
// Earth-like test model. nex 8 is the smallest resolution that admits
// both levels.
var doublings = []float64{5200e3, 3000e3}

// doubledConfigs are the (nex, nproc) configurations of the doubled-mesh
// ablations.
func doubledConfigs(quick bool) [][2]int {
	return pick(quick, [][2]int{{8, 1}, {16, 2}}, [][2]int{{8, 1}})
}

// experimentList wires every experiment id of DESIGN.md to its runner.
// The quick flag selects smaller sweeps for smoke runs.
func experimentList() []experiment {
	return []experiment{
		{
			id: "FIG5", desc: "disk space vs resolution (legacy mesher->solver database)",
			run: func(quick bool) (fmt.Stringer, error) {
				return experiments.Fig5(pick(quick, []int{4, 8, 12, 16}, []int{4, 8}))
			},
		},
		{
			id: "FIG6", desc: "total communication time vs core count",
			run: func(quick bool) (fmt.Stringer, error) {
				rows, err := experiments.CommSweep(pick(quick, []int{8, 12}, []int{4, 8}), []int{1, 2}, pick(quick, 8, 4))
				if err != nil {
					return nil, err
				}
				return experiments.Fig6(rows)
			},
		},
		{
			id: "FIG7", desc: "total runtime vs resolution (fixed steps)",
			run: func(quick bool) (fmt.Stringer, error) {
				return experiments.Fig7(pick(quick, []int{4, 6, 8, 12, 16}, []int{4, 8}), pick(quick, 8, 4))
			},
		},
		{
			id: "COMM%", desc: "communication fraction of the solver main loop",
			run: func(quick bool) (fmt.Stringer, error) {
				rows, err := experiments.CommSweep(pick(quick, []int{8}, []int{4}), []int{1, 2}, pick(quick, 8, 4))
				return experiments.CommFractionTable(rows), err
			},
		},
		{
			id: "OVERLAP", desc: "exposed comm: overlapped schedule vs the blocking baseline read off the same run",
			run: func(quick bool) (fmt.Stringer, error) {
				steps := pick(quick, 8, 4)
				rows, err := experiments.CommSweep(pick(quick, []int{8, 12}, []int{4}), pick(quick, []int{1, 2}, []int{1}), steps)
				if err != nil {
					return nil, err
				}
				// Joint sweep: doubling x interconnect together; its
				// undoubled rows are the per-machine overlap runs. The
				// joint table pins nex 8 even when quick shrinks the main
				// sweep.
				j, err := experiments.OverlapJoint(8, 1, steps, doublings)
				if err != nil {
					return nil, err
				}
				return stringerFunc(experiments.OverlapTable(rows).String() + j.String()), nil
			},
		},
		{
			id: "LTS", desc: "clustered local time stepping: uniform vs doubled vs doubled+LTS on PREM",
			run: func(quick bool) (fmt.Stringer, error) {
				return experiments.LTSAblation(doubledConfigs(quick), doublings, pick(quick, 8, 4))
			},
		},
		{
			id: "MESHDBL", desc: "mesh doubling layers: element count, halo S/V, exposed comm",
			run: func(quick bool) (fmt.Stringer, error) {
				return experiments.MeshDoubling(doubledConfigs(quick), doublings, pick(quick, 8, 4))
			},
		},
		{
			id: "MESHRES", desc: "wavelength-derived vs hand-tuned doubling schedules (elements, halo, min pts/wavelength)",
			run: func(quick bool) (fmt.Stringer, error) {
				// The hand-tuned radii against the schedule derived from
				// the PREM wavelength profile per NEX.
				return experiments.MeshResolution(doubledConfigs(quick), doublings, pick(quick, 6, 4))
			},
		},
		{
			id: "MEM37", desc: "memory model + section 6 table (TAB6)",
			run: func(quick bool) (fmt.Stringer, error) {
				return experiments.Memory(pick(quick, []int{4, 8, 12, 16}, []int{4, 8}))
			},
		},
		{
			id: "ATT1.8", desc: "attenuation on/off cost factor",
			run: func(quick bool) (fmt.Stringer, error) {
				return experiments.Attenuation(pick(quick, 8, 4), pick(quick, 10, 6))
			},
		},
		{
			id: "MESH2X", desc: "merged single-pass vs legacy two-pass mesher",
			run: func(quick bool) (fmt.Stringer, error) {
				return experiments.Mesher(pick(quick, 12, 8))
			},
		},
		{
			id: "IOMERGE", desc: "legacy file database vs merged in-memory handoff",
			run: func(quick bool) (fmt.Stringer, error) {
				return experiments.IOModes(pick(quick, 8, 4))
			},
		},
		{
			id: "KERNROOF", desc: "kernel x workers roofline sweep: steps/s, Gflop/s, AI, % of peak",
			run: func(quick bool) (fmt.Stringer, error) {
				return experiments.KernRoof(pick(quick, 6, 4), 8, pick(quick, 20, 4), pick(quick, []int{1, 4}, []int{1}))
			},
		},
		{
			id: "BATCH", desc: "multi-source ensemble batching on vec4: source-steps/s, AI vs S",
			run: func(quick bool) (fmt.Stringer, error) {
				return experiments.BatchAblation(pick(quick, 10, 4), 8, pick(quick, 16, 4), pick(quick, []int{1, 2, 4, 8}, []int{1, 2}), 1)
			},
		},
		{
			id: "SERVICE", desc: "simulation-as-a-service daemon vs sequential one-shot runs: jobs/s, src-steps/s",
			run: func(quick bool) (fmt.Stringer, error) {
				// nex, steps, jobs, S <= maxBatch.
				return experiments.Service(pick(quick, 8, 4), pick(quick, 12, 6), pick(quick, 8, 4), pick(quick, 4, 2), 1)
			},
		},
		{
			id: "SSE20", desc: "force kernels vec4 vs scalar (solver runs), BLAS vs scalar per block",
			run: func(quick bool) (fmt.Stringer, error) {
				return experiments.Kernels(pick(quick, 8, 4), pick(quick, 10, 6))
			},
		},
		{
			id: "CM5", desc: "Cuthill-McKee element sorting vs natural/scrambled order",
			run: func(quick bool) (fmt.Stringer, error) {
				return experiments.Renumbering(pick(quick, 8, 4), pick(quick, 8, 4))
			},
		},
		{
			id: "STALOC", desc: "legacy nonlinear vs nearest-point station location",
			run: func(quick bool) (fmt.Stringer, error) {
				return experiments.StationLocation(pick(quick, 8, 4), pick(quick, 12, 6))
			},
		},
		{
			id: "LOADBAL", desc: "element load balance across ranks",
			run: func(quick bool) (fmt.Stringer, error) {
				s, err := experiments.LoadBalance(pick(quick, 8, 4), 2)
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
