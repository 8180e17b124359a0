package meshfem

import (
	"math"

	"specglobe/internal/earthmodel"
)

// LayerAudit is the accounting of one radial element layer of the built
// globe (or of the central cube) over the layer's elements on every
// rank: its resolution at one period, the fewest GLL points per shortest
// wavelength, and its stability at one Courant number, the smallest
// per-element stable time step. The per-layer view localizes where a
// mesh is closest to the points-per-wavelength budget — the governing
// layer is what the wavelength-adaptive doubling planner must not
// coarsen past — and how far each layer's own stable dt sits above the
// governing (global minimum) dt that every element steps at.
type LayerAudit struct {
	Region earthmodel.Region
	// R0, R1 bound the layer radially in meters (the cube row spans
	// [0, cube radius]).
	R0, R1 float64
	// NexXi, NexEta are the chunk-side element counts at the BOTTOM of
	// the layer (the coarse side of a doubling layer).
	NexXi, NexEta int
	// Doubling marks the two conforming transition layers of a
	// doubling; Cube marks the central-cube pseudo-layer.
	Doubling, Cube bool
	// MinPts is the layer's minimum points-per-wavelength.
	MinPts float64
	// MinDt is the layer's smallest per-element stable dt (seconds).
	MinDt float64
}

// LayerAudits audits every layer of the built globe at the given period
// and Courant number, bottom-to-top per region in spec order
// (crust/mantle first), with the central cube appended to its region.
// The minimum MinPts over rows equals mesh.ComputeResolutionStats'
// MinPts for the same period; the minimum MinDt equals the exhaustive
// per-element ElementDt minimum, at or above the region-wide StableDt,
// which conservatively pairs the global minimum GLL spacing with the
// global maximum velocity (possibly from different elements).
func (g *Globe) LayerAudits(periodS, courant float64) []LayerAudit {
	var out []LayerAudit
	// audit appends row la with its minima over the elements
	// [base(rank), base(rank)+count(rank)) of every rank.
	audit := func(la LayerAudit, base, count func(rank int) int) {
		la.MinPts, la.MinDt = math.Inf(1), math.Inf(1)
		for rank := range g.Locals {
			reg := g.Locals[rank].Regions[la.Region]
			b := base(rank)
			for e := b; e < b+count(rank); e++ {
				if pts := reg.PtsPerWavelength(e, periodS); pts < la.MinPts {
					la.MinPts = pts
				}
				if dt := reg.ElementDt(e, courant); dt < la.MinDt {
					la.MinDt = dt
				}
			}
		}
		out = append(out, la)
	}
	for si := range g.specs {
		sp := &g.specs[si]
		for li, l := range sp.layers {
			audit(LayerAudit{Region: sp.kind, R0: l.r0, R1: l.r1, NexXi: l.botXi(), NexEta: l.botEta(),
				Doubling: l.kind != layerUniform},
				func(int) int { return g.layerBase[si][li] },
				func(int) int { return g.layerCount[si][li] })
		}
		if sp.withCube {
			audit(LayerAudit{Region: sp.kind, R0: 0, R1: g.rcc, NexXi: g.cubeNex, NexEta: g.cubeNex, Cube: true},
				func(rank int) int { return g.cubeBase[rank] },
				func(rank int) int { return len(g.cubeCells[rank]) })
		}
	}
	return out
}
