package mesh

import (
	"math"

	"specglobe/internal/earthmodel"
)

// Resolution accounting: how many GLL points the built mesh actually
// places per shortest seismic wavelength at a given period — the
// quantity the paper's meshing rule (~5 points per wavelength, section
// 3) budgets, and the one the wavelength-adaptive doubling planner in
// internal/meshfem promises to preserve while coarsening. Computed from
// the mesh itself (each element's audit of its node positions and
// materials), so it audits the real elements, including the doubling
// templates, rather than the planner's idealized lateral sizes.

// PtsPerWavelength returns the points-per-wavelength resolution of
// element e at period periodS: the slowest wave the element's material
// supports (S where shear exists, P at fluid points) times the period,
// divided by the coarsest mean GLL spacing over the element's grid
// lines (each line's arc length spans gll.Degree intervals) — both read
// from the element audit.
func (r *Region) PtsPerWavelength(e int, periodS float64) float64 {
	a := &r.audited()[e]
	return a.VMin * periodS / a.HMax
}

// WorstElement identifies the element with the fewest points per
// wavelength in a distributed mesh.
type WorstElement struct {
	Rank int
	Kind earthmodel.Region
	Elem int
	// RadiusM is the element-center radius in meters.
	RadiusM float64
	// Pts is the element's points-per-wavelength at the stats period.
	Pts float64
}

// ResolutionStats summarizes the points-per-wavelength resolution of a
// distributed mesh at one period, next to ComputeHaloStats' view of the
// same mesh's communication surface.
type ResolutionStats struct {
	PeriodS  float64
	Elements int
	// MinPts is the fewest GLL points per shortest wavelength over all
	// elements — the number the ~5-points budget constrains.
	MinPts float64
	// MeanPts is the element mean, a measure of how much the mesh
	// oversamples (large deep-mesh values are what doubling removes).
	MeanPts float64
	Worst   WorstElement
}

// ComputeResolutionStats audits every element of a distributed mesh at
// the given period: a reduction over the element audits.
func ComputeResolutionStats(locals []*Local, periodS float64) ResolutionStats {
	s := ResolutionStats{PeriodS: periodS, MinPts: math.Inf(1)}
	sum := 0.0
	var worst *Region
	for _, l := range locals {
		for _, reg := range l.Regions {
			if reg == nil || reg.NSpec == 0 {
				continue
			}
			for e := 0; e < reg.NSpec; e++ {
				pts := reg.PtsPerWavelength(e, periodS)
				sum += pts
				s.Elements++
				if pts < s.MinPts {
					s.MinPts = pts
					s.Worst = WorstElement{Rank: l.Rank, Kind: reg.Kind, Elem: e, Pts: pts}
					worst = reg
				}
			}
		}
	}
	if worst != nil {
		s.Worst.RadiusM = elementCenterRadius(worst, s.Worst.Elem)
	}
	if s.Elements > 0 {
		s.MeanPts = sum / float64(s.Elements)
	} else {
		s.MinPts = 0
	}
	return s
}

// elementCenterRadius returns the radius of the element's center point.
func elementCenterRadius(r *Region, e int) float64 {
	c := NGLL / 2
	p := r.Pts[r.Ibool[Idx(e, c, c, c)]]
	return math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
}
