package experiments

import (
	"fmt"
	"sort"
	"strings"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/perfmodel"
	"specglobe/internal/solver"
)

// The LTS ablation measures what clustered local time stepping buys on
// top of the mesh doubling layers. Doubling coarsens deep elements
// laterally, which raises their per-element stable dt — but the global
// integrator still steps every element at the finest dt. LTS bins
// elements into rate-2^k clusters that fire every rate-th step, so the
// doubled mesh's dt headroom turns into skipped element updates. Three
// variants run per configuration on PREM:
//
//   - uniform: no doubling layers, single-rate (the baseline mesh),
//   - doubled: doubling layers on, single-rate (PR 4's best), and
//   - doubled+LTS: the same mesh under the cluster wheel.
//
// The metric is steps-of-finest-level per second — wall-clock progress
// of the finest cluster, the only rate at which all variants advance
// the same simulated time per step. Beside the realized speedup the
// table prints the rate-weighted update reduction (sum N_r / sum
// N_r/r), the theoretical bound the wheel is measured against: point
// updates, halos and the unclustered phases dilute it.

// LTSRow is one (configuration, variant) measurement.
type LTSRow struct {
	P, Res  int
	Variant string // "uniform", "doubled", "doubled+LTS"
	// Elements is the total element count of the mesh.
	Elements int
	// Dt is the global (finest) stable time step.
	Dt float64
	// RateCounts is elements per rate (nil for single-rate variants).
	RateCounts map[int]int64
	// TheoreticalReduction is the rate-weighted element-update
	// reduction (1 for single-rate variants).
	TheoreticalReduction float64
	// StepsFinestPerSec is wall-clock steps of the finest level per
	// second.
	StepsFinestPerSec float64
	// ElemImbalance is max/mean element count across ranks.
	ElemImbalance float64
	// CostImbalance is max/mean of the rank cost sum(1/rate) — the
	// per-finest-step work balance the LTS wheel actually sees
	// (mesh.ComputeLoadStatsRated). Equals ElemImbalance for
	// single-rate variants.
	CostImbalance float64
	// Speedup is StepsFinestPerSec over the doubled single-rate
	// baseline of the same configuration (0 until the baseline row of
	// the configuration exists).
	Speedup float64
}

// LTSResult is the local-time-stepping ablation.
type LTSResult struct {
	Doublings []float64
	Steps     int
	Rows      []LTSRow
}

// LTSAblation runs uniform, doubled, and doubled+LTS variants at each
// (nex, nproc) configuration on PREM and measures
// steps-of-finest-level/sec next to the theoretical rate-weighted
// reduction of the realized clustering.
func LTSAblation(configs [][2]int, doublings []float64, steps int) (*LTSResult, error) {
	model := earthmodel.NewPREM()
	out := &LTSResult{Doublings: doublings, Steps: steps}
	for _, pc := range configs {
		nex, nproc := pc[0], pc[1]
		variants := []struct {
			name    string
			doubled bool
			lts     bool
		}{
			{"uniform", false, false},
			{"doubled", true, false},
			{"doubled+LTS", true, true},
		}
		var baseline float64 // doubled single-rate steps/sec
		for _, v := range variants {
			var dbl []float64
			if v.doubled {
				dbl = doublings
			}
			g, err := buildGlobe(model, nex, nproc, dbl)
			if err != nil {
				return nil, fmt.Errorf("lts (nex %d, nproc %d, %s): %w", nex, nproc, v.name, err)
			}
			res, err := solveCentral(g, solver.Options{Steps: steps, LTS: v.lts})
			if err != nil {
				return nil, err
			}
			row := LTSRow{
				P: g.Decomp.NumRanks(), Res: nex, Variant: v.name,
				Elements:             g.TotalElements(),
				Dt:                   res.Dt,
				TheoreticalReduction: 1,
				StepsFinestPerSec:    float64(steps) / res.Perf.WallTime.Seconds(),
			}
			maxRate := 1
			if res.LTS != nil {
				row.RateCounts = res.LTS.ElemsByRate
				row.TheoreticalReduction = res.LTS.UpdateReduction
				row.StepsFinestPerSec = res.LTS.StepsOfFinestPerSec
				maxRate = res.LTS.MaxRate
			}
			ls := mesh.ComputeLoadStatsRated(g.Locals, res.Dt, 0.3, maxRate)
			row.ElemImbalance = ls.Imbalance
			row.CostImbalance = ls.CostImbalance
			if v.doubled && !v.lts {
				baseline = row.StepsFinestPerSec
			}
			if v.lts && baseline > 0 {
				row.Speedup = row.StepsFinestPerSec / baseline
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// formatRates renders a rate-count map in ascending rate order.
func formatRates(rc map[int]int64) string {
	if len(rc) == 0 {
		return "-"
	}
	rates := make([]int, 0, len(rc))
	for r := range rc {
		rates = append(rates, r)
	}
	sort.Ints(rates)
	parts := make([]string, len(rates))
	for i, r := range rates {
		parts[i] = fmt.Sprintf("%dx%d", r, rc[r])
	}
	return strings.Join(parts, " ")
}

// String renders the LTS ablation table.
func (r *LTSResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "LTS: clustered local time stepping on PREM (doubling radii %v, %d steps)\n",
		r.Doublings, r.Steps)
	fmt.Fprintf(&b, "  %6s %5s %-12s %8s %9s %-18s %7s %12s %8s %7s %7s\n",
		"P", "res", "variant", "elems", "dt", "rates(rxN)", "theory", "finest-st/s", "speedup", "imb", "cost-imb")
	for _, row := range r.Rows {
		speed := "-"
		if row.Speedup > 0 {
			speed = fmt.Sprintf("%.2fx", row.Speedup)
		}
		fmt.Fprintf(&b, "  %6d %5d %-12s %8d %8.3fs %-18s %6.2fx %12.3f %8s %7.3f %7.3f\n",
			row.P, row.Res, row.Variant, row.Elements, row.Dt,
			formatRates(row.RateCounts), row.TheoreticalReduction,
			row.StepsFinestPerSec, speed, row.ElemImbalance, row.CostImbalance)
	}
	b.WriteString("  theory = rate-weighted element-update reduction (sum N_r / sum N_r/r): the\n")
	b.WriteString("  bound on the *element-kernel* speedup. Realized steps-of-finest-level/sec\n")
	b.WriteString("  (vs the doubled single-rate baseline) can fall short of it — point updates\n")
	b.WriteString("  and per-step fixed costs are not clustered — or exceed it where virtual\n")
	b.WriteString("  halo time dominates, since dormant levels skip whole exchange rounds.\n")
	b.WriteString("  imb/cost-imb = max/mean element count vs max/mean sum(1/rate) per rank:\n")
	b.WriteString("  the rate-weighted cost is the work per finest step under the wheel, so a\n")
	b.WriteString("  cost-imb above imb means the coarse (cheap) clusters concentrate away from\n")
	b.WriteString("  the busiest ranks and LTS worsens the effective balance\n")
	return b.String()
}

// --- OVERLAP/joint: doubling x interconnect ------------------------------

// OverlapJointRow is one (machine, doubling) cell of the joint
// extrapolation.
type OverlapJointRow struct {
	Machine   string
	LatencyUS float64
	LinkBWGBs float64
	Doubled   bool
	// Exposed/Hidden virtual comm (summed over ranks, seconds) and the
	// comm fraction under the overlapped schedule.
	Exposed, Hidden float64
	Frac            float64
	StepsPerSec     float64
}

// OverlapJointResult is the joint doubling x interconnect sweep: two
// axes the FIG6/OVERLAP extrapolations otherwise vary one at a time,
// measured together so their interaction is visible in one table
// (doubling shrinks the halo the inner elements must hide; a slower link
// stretches it). Its undoubled rows are the per-machine overlap runs: a
// slower link leaves more transfer time to hide, a faster one shrinks
// both exposed and hidden comm.
type OverlapJointResult struct {
	P, Res, Steps int
	Doublings     []float64
	Rows          []OverlapJointRow
}

// OverlapJoint runs the overlapped schedule at one (nex, nproc)
// configuration for every combination of doubling on/off and catalog
// interconnect.
func OverlapJoint(nex, nproc, steps int, doublings []float64) (*OverlapJointResult, error) {
	model := earthmodel.EarthLike()
	out := &OverlapJointResult{Res: nex, Steps: steps, Doublings: doublings}
	for _, doubled := range []bool{false, true} {
		var dbl []float64
		if doubled {
			dbl = doublings
		}
		g, err := buildGlobe(model, nex, nproc, dbl)
		if err != nil {
			return nil, err
		}
		out.P = g.Decomp.NumRanks()
		for _, m := range perfmodel.Catalog() {
			res, err := solveCentral(g, solver.Options{Steps: steps, Network: m.Net()})
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, OverlapJointRow{
				Machine: m.Name, LatencyUS: m.LatencyUS, LinkBWGBs: m.LinkBWGBs,
				Doubled:     doubled,
				Exposed:     res.MPI.Exposed().Seconds(),
				Hidden:      res.MPI.HiddenCommTime.Seconds(),
				Frac:        res.Perf.CommFraction,
				StepsPerSec: float64(steps) / res.Perf.WallTime.Seconds(),
			})
		}
	}
	return out, nil
}

// String renders the joint table.
func (r *OverlapJointResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "OVERLAP/joint: doubling x interconnect, overlapped schedule (P=%d, res=%d, %d steps)\n",
		r.P, r.Res, r.Steps)
	fmt.Fprintf(&b, "  %-9s %7s %8s %8s %12s %12s %9s %9s\n",
		"machine", "lat", "bw", "doubled", "exposed(s)", "hidden(s)", "frac", "steps/s")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s %5.1fus %5.2fGB/s %8v %11.6fs %11.6fs %8.2f%% %9.3f\n",
			row.Machine, row.LatencyUS, row.LinkBWGBs, row.Doubled,
			row.Exposed, row.Hidden, 100*row.Frac, row.StepsPerSec)
	}
	b.WriteString("  doubling shrinks the halo the inner elements must hide, a slower link\n")
	b.WriteString("  stretches it\n")
	return b.String()
}
