package experiments

import (
	"fmt"
	"strings"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/solver"
)

// The MESHRES ablation measures what deriving the doubling schedule
// from the earth model buys over hand-tuning it. The paper sizes the
// global mesh by the shortest wavelength it must resolve (~5 GLL points
// per wavelength, section 3), and the production mesher places its
// doubling layers where the PREM velocity profile lets the lateral
// resolution halve. Three schedules are compared per (NEX, NPROC)
// configuration on PREM itself:
//
//   - uniform: no doubling (the oversampling baseline),
//   - manual: the hand-typed radii the MESHDBL ablation uses, and
//   - derived: meshfem.PlanDoublings walking the minimum-wavelength
//     profile at the paper-rule period for the NEX.
//
// Each row reports the mesh shape (elements, halo boundary points,
// halo surface-to-volume), the exposed communication of a live
// overlapped run, and — the quantity this ablation exists for — the
// minimum points-per-wavelength the built mesh actually realizes at
// the common period. A derived schedule must coarsen (fewer elements
// than uniform) without dropping the realized minimum below the
// uniform mesh's: the governing worst element stays in the fine
// surface layers, so resolution is preserved while the deep mesh
// stops oversampling.

// MeshResRow is one (configuration, schedule) measurement.
type MeshResRow struct {
	P, Res   int
	Schedule string // "uniform", "manual" or "derived"
	// Doublings is the schedule actually meshed (empty for uniform;
	// the derived radii come from the wavelength profile).
	Doublings []float64
	// Mesh shape.
	Elements         int
	HaloPoints       int
	SurfacePerVolume float64
	// Resolution accounting at the row's target period.
	MinPts  float64
	MeanPts float64
	// Solver measurements under the overlapped schedule.
	ExposedSec  float64
	ExposedFrac float64
}

// MeshResResult is the manual-vs-derived schedule comparison.
type MeshResResult struct {
	Budget float64
	Manual []float64
	Steps  int
	Rows   []MeshResRow
}

// MeshResolution builds PREM globes under the three schedules at each
// (nex, nproc) configuration and measures mesh shape, realized
// resolution and exposed communication. manual lists the hand-tuned
// radii; the derived schedule is planned per configuration at the
// paper-rule period 256*17/NEX with the 5-points budget.
func MeshResolution(configs [][2]int, manual []float64, steps int) (*MeshResResult, error) {
	model := earthmodel.NewPREM()
	out := &MeshResResult{Manual: manual, Steps: steps}
	for _, pc := range configs {
		nex, nproc := pc[0], pc[1]
		resolved := meshfem.AutoDoubling{}.Resolved(nex)
		period := resolved.TargetPeriodS
		out.Budget = resolved.PointsPerWavelength
		for _, schedule := range []string{"uniform", "manual", "derived"} {
			cfg := meshfem.Config{NexXi: nex, NProcXi: nproc, Model: model}
			switch schedule {
			case "manual":
				cfg.Doublings = manual
			case "derived":
				cfg.AutoDoubling = &meshfem.AutoDoubling{TargetPeriodS: period}
			}
			g, err := meshfem.Build(cfg)
			if err != nil {
				return nil, fmt.Errorf("meshres (nex %d, nproc %d, %s): %w", nex, nproc, schedule, err)
			}
			p, err := globeProblem(g)
			if err != nil {
				return nil, err
			}
			res, err := solve(p, solver.Options{Steps: steps})
			if err != nil {
				return nil, err
			}
			hs := mesh.ComputeHaloStats(g.Locals, g.Plans)
			rs := mesh.ComputeResolutionStats(g.Locals, period)
			out.Rows = append(out.Rows, MeshResRow{
				P: g.Decomp.NumRanks(), Res: nex, Schedule: schedule,
				Doublings:        g.Cfg.Doublings,
				Elements:         hs.Elements,
				HaloPoints:       hs.HaloPoints,
				SurfacePerVolume: hs.SurfacePerVolume,
				MinPts:           rs.MinPts,
				MeanPts:          rs.MeanPts,
				ExposedSec:       res.MPI.Exposed().Seconds(),
				ExposedFrac:      res.Perf.CommFraction,
			})
		}
	}
	return out, nil
}

// String renders the schedule comparison table.
func (r *MeshResResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MESHRES: wavelength-derived vs hand-tuned doubling schedules on PREM (%d steps,\n", r.Steps)
	fmt.Fprintf(&b, "  paper-rule period per NEX, budget %.0f pts/wavelength; manual radii %v)\n", r.Budget, r.Manual)
	fmt.Fprintf(&b, "  %6s %5s %-8s %8s %9s %9s %8s %8s %11s %9s\n",
		"P", "res", "schedule", "elems", "halo-pts", "halo/elem", "min-pts", "mean-pts", "exposed", "frac")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %6d %5d %-8s %8d %9d %9.3f %8.2f %8.2f %10.6fs %8.2f%%\n",
			row.P, row.Res, row.Schedule, row.Elements, row.HaloPoints, row.SurfacePerVolume,
			row.MinPts, row.MeanPts, row.ExposedSec, 100*row.ExposedFrac)
	}
	for i := 0; i+2 < len(r.Rows); i += 3 {
		u, m, d := r.Rows[i], r.Rows[i+1], r.Rows[i+2]
		fmt.Fprintf(&b, "  P=%d res=%d: derived %s cuts elements %.2fx (manual %.2fx) and keeps min pts/wavelength %.2f (uniform %.2f)\n",
			u.P, u.Res, "{"+joinf("%.0f km", d.Doublings, 1e3)+"}",
			float64(u.Elements)/float64(d.Elements), float64(u.Elements)/float64(m.Elements),
			d.MinPts, u.MinPts)
	}
	b.WriteString("  the planner halves the lateral resolution where the PREM wavelength profile\n")
	b.WriteString("  affords it (snapping to discontinuities), so the schedule follows the model\n")
	b.WriteString("  instead of hand-typed radii; the governing worst element stays at the surface\n")
	return b.String()
}

// joinf formats each value of vs divided by unit and joins them with
// ", ".
func joinf(format string, vs []float64, unit float64) string {
	s := make([]string, len(vs))
	for i, v := range vs {
		s[i] = fmt.Sprintf(format, v/unit)
	}
	return strings.Join(s, ", ")
}
