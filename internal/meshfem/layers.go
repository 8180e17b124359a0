package meshfem

import (
	"fmt"
	"math"

	"specglobe/internal/earthmodel"
	"specglobe/internal/gll"
)

// Radial layering with depth-graded lateral resolution: each region
// (crust/mantle, outer core, inner-core shell) is split into element
// layers whose boundaries snap to the model's first-order
// discontinuities where the mesh is fine enough to honor them, and whose
// thicknesses track the lateral element size so aspect ratios stay
// reasonable. At each configured doubling radius the lateral element
// count halves (a 2:1 coarsening, as in the production SPECFEM3D_GLOBE
// mesher) through a pair of conforming doubling layers — the upper
// halves the xi count, the lower the eta count — so elements keep
// roughly constant aspect ratio from crust to core instead of becoming
// needlessly small (and numerous) at depth. Without doubling radii the
// schedule degenerates to the former single-angular-resolution layering.

// layerKind distinguishes uniform element layers from the two doubling
// stages.
type layerKind int

const (
	// layerUniform is a regular layer: nexXi x nexEta elements.
	layerUniform layerKind = iota
	// layerDoubleXi halves the xi element count from top to bottom via
	// the 6-element template extruded along eta.
	layerDoubleXi
	// layerDoubleEta halves the eta element count from top to bottom via
	// the template extruded along xi.
	layerDoubleEta
)

// layerSpec is one radial element layer of a region. nexXi and nexEta
// are the chunk-side element counts at the TOP of the layer; doubling
// layers have half that count in their direction at the bottom.
type layerSpec struct {
	r0, r1        float64
	nexXi, nexEta int
	kind          layerKind
}

// botXi and botEta return the chunk-side element counts at the bottom
// of the layer.
func (l layerSpec) botXi() int {
	if l.kind == layerDoubleXi {
		return l.nexXi / 2
	}
	return l.nexXi
}

func (l layerSpec) botEta() int {
	if l.kind == layerDoubleEta {
		return l.nexEta / 2
	}
	return l.nexEta
}

// lateralSize returns the approximate lateral element extent at radius r
// for nex elements per chunk side.
func lateralSize(r float64, nex int) float64 {
	return r * (math.Pi / 2) / float64(nex)
}

// dblStageThickness is the radial thickness of one doubling stage: half
// the fine lateral size at the doubling radius, so each of the two
// stacked stages produces elements of reasonable aspect ratio.
func dblStageThickness(d float64, nexFine int) float64 {
	return 0.5 * lateralSize(d, nexFine)
}

// buildRadialNodes returns the ascending element-boundary radii for a
// uniform band spanning [rBot, rTop], given the model discontinuities
// that fall strictly inside the band and the band's lateral resolution.
func buildRadialNodes(rBot, rTop float64, discs []float64, nex int) []float64 {
	// Keep a discontinuity only when the mesh can afford an element
	// layer on both sides of it: at least minFrac of the local lateral
	// size away from the previous kept boundary and from the band top.
	const minFrac = 0.25
	kept := []float64{rBot}
	for _, d := range discs {
		if d <= rBot || d >= rTop {
			continue
		}
		minThick := minFrac * lateralSize(d, nex)
		if d-kept[len(kept)-1] >= minThick && rTop-d >= minThick {
			kept = append(kept, d)
		}
	}
	kept = append(kept, rTop)

	// Subdivide each kept interval so element radial thickness tracks
	// the lateral size at the interval midpoint.
	var nodes []float64
	for s := 0; s+1 < len(kept); s++ {
		r0, r1 := kept[s], kept[s+1]
		mid := 0.5 * (r0 + r1)
		n := int(math.Round((r1 - r0) / lateralSize(mid, nex)))
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			nodes = append(nodes, lerp(r0, r1, float64(i)/float64(n)))
		}
	}
	nodes = append(nodes, rTop)
	return nodes
}

// lerp interpolates endpoint-exactly: lerp(lo, hi, 0) == lo and
// lerp(lo, hi, 1) == hi bit-for-bit, which the cross-rank halo match,
// keyed on exact coordinates, relies on.
func lerp(lo, hi, s float64) float64 { return lo*(1-s) + hi*s }

// regionSpec describes one region the mesher must build.
type regionSpec struct {
	kind       earthmodel.Region
	rBot, rTop float64
	withCube   bool // innermost solid region also receives the central cube
	// layers lists the element layers bottom-to-top (layers[0] touches
	// rBot). Adjacent layers agree on the grid at their shared radius.
	layers []layerSpec
}

// nexBot and nexTop return the (isotropic) chunk-side element counts at
// the region's bottom and top boundaries; region boundaries always sit
// in uniform bands (validated in planRegions), so nexXi == nexEta there.
func (sp *regionSpec) nexBot() int { return sp.layers[0].botXi() }
func (sp *regionSpec) nexTop() int { return sp.layers[len(sp.layers)-1].nexXi }

// uniformLayers converts the ascending boundary radii of a uniform band
// into layer specs.
func uniformLayers(nodes []float64, nex int) []layerSpec {
	var out []layerSpec
	for l := 0; l+1 < len(nodes); l++ {
		out = append(out, layerSpec{
			r0: nodes[l], r1: nodes[l+1],
			nexXi: nex, nexEta: nex, kind: layerUniform,
		})
	}
	return out
}

// planRegionLayers builds the bottom-to-top layer list for one region:
// uniform bands at the resolution the global doubling schedule dictates,
// with an xi+eta doubling-layer pair at each doubling radius inside the
// region. doublings must be the subset of the global schedule that falls
// inside (rBot, rTop), in descending order; nexTop is the lateral count
// at the region top.
func planRegionLayers(rBot, rTop float64, discs, doublings []float64, nexTop int) ([]layerSpec, error) {
	var stack []layerSpec // built top-down, reversed at the end
	discsIn := func(lo, hi float64) []float64 {
		var out []float64
		for _, d := range discs {
			if d > lo && d < hi {
				out = append(out, d)
			}
		}
		return out
	}
	appendUniformDesc := func(lo, hi float64, nex int) {
		nodes := buildRadialNodes(lo, hi, discsIn(lo, hi), nex)
		layers := uniformLayers(nodes, nex)
		for i := len(layers) - 1; i >= 0; i-- {
			stack = append(stack, layers[i])
		}
	}
	cur, nex := rTop, nexTop
	for _, d := range doublings {
		t := dblStageThickness(d, nex)
		if d+t/4 > cur {
			return nil, fmt.Errorf("meshfem: doubling radius %g too close to the band top %g", d, cur)
		}
		if d-2*t-t/4 < rBot {
			return nil, fmt.Errorf("meshfem: doubling radius %g leaves no room above region bottom %g", d, rBot)
		}
		// A first-order discontinuity inside the doubling stages cannot
		// snap to an element boundary (the templates deform radially);
		// refuse rather than silently smear the material jump
		// mid-element — the radius can be moved.
		if in := discsIn(d-2*t, d); len(in) > 0 {
			return nil, fmt.Errorf(
				"meshfem: model discontinuity at %g falls inside the doubling layers [%g, %g]; move the doubling radius %g",
				in[0], d-2*t, d, d)
		}
		appendUniformDesc(d, cur, nex)
		stack = append(stack,
			layerSpec{r0: d - t, r1: d, nexXi: nex, nexEta: nex, kind: layerDoubleXi},
			layerSpec{r0: d - 2*t, r1: d - t, nexXi: nex / 2, nexEta: nex, kind: layerDoubleEta},
		)
		cur, nex = d-2*t, nex/2
	}
	appendUniformDesc(rBot, cur, nex)
	// Reverse to ascending (bottom-to-top) order.
	for i, j := 0, len(stack)-1; i < j; i, j = i+1, j-1 {
		stack[i], stack[j] = stack[j], stack[i]
	}
	return stack, nil
}

// planRegions derives the region list for a model: three regions plus a
// central cube for Earth-like models, or a single solid region with a
// central cube for models without a fluid core. doublings lists the
// radii (descending) below which the lateral element count halves.
func planRegions(model earthmodel.Model, nex int, cubeFrac float64, doublings []float64) ([]regionSpec, error) {
	surf := model.SurfaceRadius()
	icb, cmb := model.ICB(), model.CMB()
	discs := model.Discontinuities()

	nexAt := func(r float64) int {
		n := nex
		for _, d := range doublings {
			if d > r {
				n /= 2
			}
		}
		return n
	}
	doublingsIn := func(lo, hi float64) []float64 {
		var out []float64
		for _, d := range doublings {
			if d > lo && d < hi {
				out = append(out, d)
			}
		}
		return out
	}
	build := func(sp regionSpec) (regionSpec, error) {
		layers, err := planRegionLayers(sp.rBot, sp.rTop,
			discs, doublingsIn(sp.rBot, sp.rTop), nexAt(sp.rTop))
		if err != nil {
			return sp, fmt.Errorf("%w (region %v)", err, sp.kind)
		}
		sp.layers = layers
		return sp, nil
	}

	if icb > 0 && cmb > icb {
		rcc := cubeFrac * icb
		specs := []regionSpec{
			{kind: earthmodel.RegionCrustMantle, rBot: cmb, rTop: surf},
			{kind: earthmodel.RegionOuterCore, rBot: icb, rTop: cmb},
			{kind: earthmodel.RegionInnerCore, rBot: rcc, rTop: icb, withCube: true},
		}
		for i := range specs {
			var err error
			if specs[i], err = build(specs[i]); err != nil {
				return nil, err
			}
		}
		return specs, nil
	}

	// Solid ball: one crust/mantle region down to the cube surface.
	rcc := cubeFrac * surf * 0.3
	spec, err := build(regionSpec{
		kind: earthmodel.RegionCrustMantle, rBot: rcc, rTop: surf, withCube: true,
	})
	if err != nil {
		return nil, err
	}
	return []regionSpec{spec}, nil
}

// estimatedShortestPeriod returns the shortest resolvable seismic period
// for the built mesh: the paper's rule of at least 5 grid points per
// shortest wavelength, evaluated where the mesh is coarsest relative to
// the local shear velocity (P velocity in the fluid).
func estimatedShortestPeriod(model earthmodel.Model, specs []regionSpec) float64 {
	const pointsPerWavelength = 5.0
	worst := 0.0
	// GLL points divide an element edge into NGLL-1 intervals; the
	// average interval is edge/(NGLL-1) (the standard resolution rule).
	// Per layer this matches the element-wise audit's conservative view
	// (Globe.LayerAudits): the slowest material at any of the
	// layer's radial GLL nodes — the mesher samples the model exactly
	// there, so with a within-layer velocity gradient (the thick crustal
	// layers most of all) a single midpoint probe is optimistic —
	// against the coarsest lateral spacing, which sits at the layer TOP
	// where shells are widest. Doubling layers evaluate at their coarse
	// (bottom) counts.
	nodes := gll.Points(gll.Degree)
	for _, sp := range specs {
		for _, l := range sp.layers {
			vMin := math.Inf(1)
			for _, xi := range nodes {
				r := l.r0 + 0.5*(xi+1)*(l.r1-l.r0)
				if v := earthmodel.MinVelocityAt(model, r); v < vMin {
					vMin = v
				}
			}
			nexMin := l.botXi()
			if be := l.botEta(); be < nexMin {
				nexMin = be
			}
			dxLat := lateralSize(l.r1, nexMin) / float64(gll.Degree)
			dxRad := (l.r1 - l.r0) / float64(gll.Degree)
			dx := math.Max(dxLat, dxRad)
			if t := pointsPerWavelength * dx / vMin; t > worst {
				worst = t
			}
		}
	}
	return worst
}

// PaperResolutionPeriod converts a NEX_XI resolution to the shortest
// seismic period in seconds using the paper's rule of thumb
// "Resolution = 256*17 / Wave Period" (figure 5 caption).
func PaperResolutionPeriod(nex int) float64 { return 256.0 * 17.0 / float64(nex) }
