package experiments

import (
	"fmt"
	"strings"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/solver"
)

// The MESHDBL ablation measures what the production mesher's doubling
// layers buy: at equal surface resolution (equal shortest period, since
// the surface governs it), depth-graded lateral coarsening removes deep
// elements and halo surface together. Three quantities are reported per
// configuration, doubling off vs on:
//
//   - total element count (the compute volume),
//   - halo boundary points and the halo surface-to-volume ratio
//     (boundary points per element — the quantity that decides how much
//     communication a rank must hide behind how much computation), and
//   - the exposed communication time and fraction, overlapped and for
//     the blocking baseline derived from the same live run (overlap.go).
//
// On the 6-rank chunk decomposition the halo is dominated by the chunk
// seams and the central-cube sectoring — area-like surfaces that shrink
// quadratically under coarsening — so doubling reduces the ratio
// outright. Deeper slicing shifts weight to the slices' vertical walls
// (perimeter-like, shrinking only linearly).

// MeshDblRow is one mesh configuration, measured live.
type MeshDblRow struct {
	P, Res  int
	Doubled bool
	// Mesh shape.
	Elements   int
	HaloPoints int
	// SurfacePerVolume is halo boundary points per element.
	SurfacePerVolume float64
	// ShortestPeriod in seconds (must be preserved by doubling).
	ShortestPeriod float64
	// OuterFrac is the mean fraction of elements classified outer (the
	// non-overlappable work).
	OuterFrac float64
	// Solver measurements: exposed virtual comm (summed over ranks) and
	// the comm fraction of the main loop, overlapped and blocking
	// (derived, see CommRow).
	ExposedOn, ExposedOff float64
	FracOn, FracOff       float64
}

// MeshDblResult is the doubling on/off comparison.
type MeshDblResult struct {
	Doublings []float64
	Steps     int
	Rows      []MeshDblRow
}

// MeshDoubling builds the same globe with and without doubling layers at
// each (nex, nproc) configuration and measures mesh shape and exposed
// communication. doublings lists the radii passed to the mesher when
// doubling is on.
func MeshDoubling(configs [][2]int, doublings []float64, steps int) (*MeshDblResult, error) {
	model := earthmodel.EarthLike()
	out := &MeshDblResult{Doublings: doublings, Steps: steps}
	for _, pc := range configs {
		nex, nproc := pc[0], pc[1]
		for _, doubled := range []bool{false, true} {
			var dbl []float64
			if doubled {
				dbl = doublings
			}
			g, p, err := buildGlobe(model, nex, nproc, dbl)
			if err != nil {
				return nil, fmt.Errorf("meshdbl (nex %d, nproc %d, doubled %v): %w", nex, nproc, doubled, err)
			}
			on, err := solve(p, solver.Options{Steps: steps})
			if err != nil {
				return nil, err
			}
			hs := mesh.ComputeHaloStats(g.Locals, g.Plans)
			out.Rows = append(out.Rows, MeshDblRow{
				P: g.Decomp.NumRanks(), Res: nex, Doubled: doubled,
				Elements:         hs.Elements,
				HaloPoints:       hs.HaloPoints,
				SurfacePerVolume: hs.SurfacePerVolume,
				ShortestPeriod:   g.ShortestPeriod,
				OuterFrac:        meanOuterFraction(g),
				ExposedOn:        on.MPI.Exposed().Seconds(),
				ExposedOff:       on.MPI.VirtualCommTime.Seconds(),
				FracOn:           on.Perf.CommFraction,
				FracOff:          BlockingCommFraction(on.Perf),
			})
		}
	}
	return out, nil
}

// String renders the doubling ablation table.
func (r *MeshDblResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MESHDBL: mesh doubling layers on/off at equal surface resolution (radii %v, %d steps)\n",
		r.Doublings, r.Steps)
	fmt.Fprintf(&b, "  %6s %5s %8s %8s %8s %9s %7s %7s %12s %9s %9s\n",
		"P", "res", "doubled", "elems", "halo-pts", "halo/elem", "period", "outer%", "exposed-on", "frac-on", "frac-off")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %6d %5d %8v %8d %8d %9.3f %6.0fs %6.1f%% %11.6fs %8.2f%% %8.2f%%\n",
			row.P, row.Res, row.Doubled, row.Elements, row.HaloPoints, row.SurfacePerVolume,
			row.ShortestPeriod, 100*row.OuterFrac, row.ExposedOn, 100*row.FracOn, 100*row.FracOff)
	}
	// Summarize the headline deltas per configuration pair.
	for i := 0; i+1 < len(r.Rows); i += 2 {
		u, d := r.Rows[i], r.Rows[i+1]
		fmt.Fprintf(&b, "  P=%d res=%d: doubling cuts elements %.2fx and halo points %.2fx; halo/elem %.3f -> %.3f\n",
			u.P, u.Res, float64(u.Elements)/float64(d.Elements),
			float64(u.HaloPoints)/float64(d.HaloPoints), u.SurfacePerVolume, d.SurfacePerVolume)
	}
	b.WriteString("  production SPECFEM3D_GLOBE doubles laterally with depth so elements keep\n")
	b.WriteString("  ~constant aspect ratio; the chunk-seam + central-cube halo shrinks faster\n")
	b.WriteString("  than the element count on the 6-rank decomposition\n")
	return b.String()
}
