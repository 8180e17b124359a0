package meshfem

import (
	"math"

	"specglobe/internal/earthmodel"
)

// LayerResolution is the resolution accounting of one radial element
// layer of the built globe (or of the central cube), at one period:
// the fewest GLL points per shortest wavelength over the layer's
// elements on every rank. The per-layer view localizes where a mesh is
// closest to the points-per-wavelength budget — the governing layer is
// what the wavelength-adaptive doubling planner must not coarsen past.
type LayerResolution struct {
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
}

// LayerResolutions audits every layer of the built globe at the given
// period, bottom-to-top per region in spec order (crust/mantle first),
// with the central cube appended to its region. The global minimum over
// rows equals mesh.ComputeResolutionStats' MinPts for the same period.
func (g *Globe) LayerResolutions(periodS float64) []LayerResolution {
	var out []LayerResolution
	layerMin := func(kind earthmodel.Region, base func(rank int) int, count func(rank int) int) float64 {
		min := math.Inf(1)
		for rank := range g.Locals {
			reg := g.Locals[rank].Regions[kind]
			b := base(rank)
			for e := b; e < b+count(rank); e++ {
				if pts := reg.PtsPerWavelength(e, periodS); pts < min {
					min = pts
				}
			}
		}
		return min
	}
	for si := range g.specs {
		sp := &g.specs[si]
		for li, l := range sp.layers {
			si, li := si, li
			out = append(out, LayerResolution{
				Region: sp.kind, R0: l.r0, R1: l.r1,
				NexXi: l.botXi(), NexEta: l.botEta(),
				Doubling: l.kind != layerUniform,
				MinPts: layerMin(sp.kind,
					func(int) int { return g.layerBase[si][li] },
					func(int) int { return g.layerCount[si][li] }),
			})
		}
		if sp.withCube {
			out = append(out, LayerResolution{
				Region: sp.kind, R0: 0, R1: g.rcc,
				NexXi: g.cubeNex, NexEta: g.cubeNex, Cube: true,
				MinPts: layerMin(sp.kind,
					func(rank int) int { return g.cubeBase[rank] },
					func(rank int) int { return len(g.cubeCells[rank]) }),
			})
		}
	}
	return out
}

// LayerStableDt is the stability accounting of one radial layer: the
// smallest per-element stable time step over the layer's elements on
// every rank. The per-layer dt profile shows how far each layer's own
// stable dt sits above the governing (global minimum) dt that every
// element steps at.
type LayerStableDt struct {
	Region earthmodel.Region
	// R0, R1 bound the layer radially in meters.
	R0, R1 float64
	// NexXi is the chunk-side element count at the bottom of the layer.
	NexXi int
	// Doubling and Cube mirror LayerResolution's flags.
	Doubling, Cube bool
	// MinDt is the layer's smallest per-element stable dt (seconds).
	MinDt float64
}

// LayerStableDts audits every layer's per-element stable-dt minimum at
// the given Courant number, in the same layer order as
// LayerResolutions. The global minimum over rows equals the exhaustive
// per-element ElementDt minimum; it sits at or above the region-wide
// StableDt, which conservatively pairs the global minimum GLL spacing
// with the global maximum velocity (possibly from different elements).
func (g *Globe) LayerStableDts(courant float64) []LayerStableDt {
	var out []LayerStableDt
	layerMin := func(kind earthmodel.Region, base func(rank int) int, count func(rank int) int) float64 {
		min := math.Inf(1)
		for rank := range g.Locals {
			reg := g.Locals[rank].Regions[kind]
			b := base(rank)
			for e := b; e < b+count(rank); e++ {
				if dt := reg.ElementDt(e, courant); dt < min {
					min = dt
				}
			}
		}
		return min
	}
	for si := range g.specs {
		sp := &g.specs[si]
		for li, l := range sp.layers {
			si, li := si, li
			out = append(out, LayerStableDt{
				Region: sp.kind, R0: l.r0, R1: l.r1,
				NexXi:    l.botXi(),
				Doubling: l.kind != layerUniform,
				MinDt: layerMin(sp.kind,
					func(int) int { return g.layerBase[si][li] },
					func(int) int { return g.layerCount[si][li] }),
			})
		}
		if sp.withCube {
			out = append(out, LayerStableDt{
				Region: sp.kind, R0: 0, R1: g.rcc,
				NexXi: g.cubeNex, Cube: true,
				MinDt: layerMin(sp.kind,
					func(rank int) int { return g.cubeBase[rank] },
					func(rank int) int { return len(g.cubeCells[rank]) }),
			})
		}
	}
	return out
}
