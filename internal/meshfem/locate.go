package meshfem

import (
	"fmt"
	"math"
	"sort"

	"specglobe/internal/cubedsphere"
	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

// Point location: map a physical position (direction + radius) to the
// owning rank, region, element and reference coordinates. The cubed
// sphere makes this analytic for uniform shell layers — the "simpler
// algorithm to locate seismic recording stations" of section 4.4 relies
// on the same structure. Positions inside a doubling layer invert the
// template's bilinear quads with a Newton iteration, and central-cube
// positions invert the spherified-cube blend along the ray with a
// bisection.

// Location identifies a physical point within the distributed mesh.
type Location struct {
	Rank int
	Kind earthmodel.Region
	Elem int        // local element index within the region
	Ref  [3]float64 // reference coordinates in [-1, 1]^3
	Pos  cubedsphere.Vec3
}

// Locate maps a direction (need not be normalized) and radius in meters
// to a mesh location.
func (g *Globe) Locate(dir cubedsphere.Vec3, radius float64) (Location, error) {
	dir = dir.Normalize()
	if dir.Norm() == 0 {
		return Location{}, fmt.Errorf("meshfem: zero direction")
	}
	surf := g.Cfg.Model.SurfaceRadius()
	if radius <= 0 || radius > surf {
		return Location{}, fmt.Errorf("meshfem: radius %g outside (0, %g]", radius, surf)
	}
	if g.rcc > 0 && radius < g.rcc {
		return g.locateCube(dir, radius)
	}
	for si := range g.specs {
		sp := &g.specs[si]
		if radius < sp.rBot || radius > sp.rTop {
			continue
		}
		li := 0
		for ; li+1 < len(sp.layers); li++ {
			if radius < sp.layers[li].r1 {
				break
			}
		}
		l := sp.layers[li]
		face := cubedsphere.FaceOf(dir)
		xi, eta := cubedsphere.XiEta(face, dir)
		a, b := math.Tan(xi), math.Tan(eta)
		switch l.kind {
		case layerUniform:
			return g.locateUniform(si, li, face, a, b, radius)
		case layerDoubleXi:
			return g.locateDoubling(si, li, face, a, b, radius, true)
		default:
			return g.locateDoubling(si, li, face, a, b, radius, false)
		}
	}
	return Location{}, fmt.Errorf("meshfem: radius %g not covered by any region", radius)
}

// locateUniform resolves a position inside a uniform shell layer.
func (g *Globe) locateUniform(si, li int, face cubedsphere.Face, a, b, radius float64) (Location, error) {
	sp := &g.specs[si]
	l := sp.layers[li]
	i, refXi := tanCell(g.grid(l.nexXi), a)
	j, refEta := tanCell(g.grid(l.nexEta), b)
	rank := g.Decomp.RankOf(cubedsphere.Slice{
		Chunk: face,
		PXi:   g.Decomp.SliceOfElemAt(l.nexXi, i),
		PEta:  g.Decomp.SliceOfElemAt(l.nexEta, j),
	})
	zeta := clampRef(2*(radius-l.r0)/(l.r1-l.r0) - 1)
	return Location{
		Rank: rank,
		Kind: sp.kind,
		Elem: g.uniformElemIndex(si, li, rank, i, j),
		Ref:  [3]float64{refXi, refEta, zeta},
		Pos:  cubedsphere.DirectionTan(face, a, b).Scale(radius),
	}, nil
}

// locateDoubling resolves a position inside a doubling layer by finding
// the owning template copy and inverting its six bilinear quads. alongXi
// selects the xi-doubling layer (quad in the (a, radius) plane, extruded
// along eta); otherwise the eta-doubling layer.
func (g *Globe) locateDoubling(si, li int, face cubedsphere.Face, a, b, radius float64, alongXi bool) (Location, error) {
	sp := &g.specs[si]
	l := sp.layers[li]
	lat, ext := a, b // quad-plane lateral coordinate, extrusion coordinate
	latNex, extNex := l.nexXi, l.nexEta
	if !alongXi {
		lat, ext = b, a
		latNex, extNex = l.nexEta, l.nexXi
	}
	fineGrid := g.grid(latNex)
	iF, _ := tanCell(fineGrid, lat)
	iE, refExt := tanCell(g.grid(extNex), ext)
	f0 := (iF / 4) * 4
	var fine [5]float64
	copy(fine[:], fineGrid[f0:f0+5])
	quads := dblTemplate(fine, l.r0, l.r1)
	qi, s, t, err := invertTemplate(quads[:], lat, radius)
	if err != nil {
		return Location{}, fmt.Errorf("meshfem: doubling layer at r=[%g,%g]: %w", l.r0, l.r1, err)
	}

	var pXi, pEta int
	if alongXi {
		pXi = g.Decomp.SliceOfElemAt(latNex, iF)
		pEta = g.Decomp.SliceOfElemAt(extNex, iE)
	} else {
		pXi = g.Decomp.SliceOfElemAt(extNex, iE)
		pEta = g.Decomp.SliceOfElemAt(latNex, iF)
	}
	rank := g.Decomp.RankOf(cubedsphere.Slice{Chunk: face, PXi: pXi, PEta: pEta})

	var elem int
	var ref [3]float64
	base := g.layerBase[si][li]
	np := g.Cfg.NProcXi
	if alongXi {
		copies := latNex / np / 4
		ilo, _ := g.Decomp.ElemRangeAt(latNex, pXi)
		jlo, _ := g.Decomp.ElemRangeAt(extNex, pEta)
		elem = base + ((iE-jlo)*copies+(f0-ilo)/4)*6 + qi
		ref = [3]float64{clampRef(2*s - 1), refExt, clampRef(2*t - 1)}
	} else {
		ilo, _ := g.Decomp.ElemRangeAt(extNex, pXi)
		jlo, _ := g.Decomp.ElemRangeAt(latNex, pEta)
		perXi := g.Decomp.NexPerSliceAt(extNex)
		elem = base + ((f0-jlo)/4*6+qi)*perXi + (iE - ilo)
		ref = [3]float64{refExt, clampRef(2*s - 1), clampRef(2*t - 1)}
	}
	return Location{
		Rank: rank,
		Kind: sp.kind,
		Elem: elem,
		Ref:  ref,
		Pos:  cubedsphere.DirectionTan(face, a, b).Scale(radius),
	}, nil
}

// invertTemplate finds the template quad containing the (lateral,
// radius) point and its bilinear parameters (s, t) in [0, 1]^2.
func invertTemplate(quads []quad2, a, r float64) (qi int, s, t float64, err error) {
	const tol = 1e-9
	bestQ, bestS, bestT, bestOut := -1, 0.0, 0.0, math.Inf(1)
	for i := range quads {
		s, t, ok := invertQuad(&quads[i], a, r)
		if !ok {
			continue
		}
		// Distance outside the unit parameter square (0 if inside).
		out := math.Max(math.Max(-s, s-1), 0) + math.Max(math.Max(-t, t-1), 0)
		if out < bestOut {
			bestQ, bestS, bestT, bestOut = i, s, t, out
		}
		if out <= tol {
			break
		}
	}
	if bestQ < 0 || bestOut > 0.05 {
		return 0, 0, 0, fmt.Errorf("point (%g, %g) not found in template", a, r)
	}
	return bestQ, clamp(bestS, 0, 1), clamp(bestT, 0, 1), nil
}

// invertQuad solves the bilinear map of one quad for (s, t) by Newton
// iteration on the raw (tangent, radius) residuals. The mixed scales
// (tangent ~1, radius ~1e6 m) are harmless: the 2x2 solve is by exact
// cofactors, which is scale-invariant row by row.
func invertQuad(q *quad2, a, r float64) (s, t float64, ok bool) {
	bl := func(c [2][2]float64, s, t float64) float64 {
		return (c[0][0]*(1-s)+c[1][0]*s)*(1-t) + (c[0][1]*(1-s)+c[1][1]*s)*t
	}
	s, t = 0.5, 0.5
	for iter := 0; iter < 50; iter++ {
		fa := bl(q.a, s, t) - a
		fr := bl(q.r, s, t) - r
		as, at, rs, rt := q.deriv(s, t)
		det := as*rt - at*rs
		if det == 0 {
			return 0, 0, false
		}
		ds := (fa*rt - at*fr) / det
		dt := (as*fr - fa*rs) / det
		s -= ds
		t -= dt
		if math.Abs(ds)+math.Abs(dt) < 1e-13 {
			return s, t, true
		}
		// Keep the iterate near the quad; Newton on a bilinear map is
		// well behaved but guard against runaway.
		if math.Abs(s) > 10 || math.Abs(t) > 10 {
			return 0, 0, false
		}
	}
	// Iterations exhausted without meeting the step tolerance: signal
	// failure rather than hand back a non-converged inversion.
	return 0, 0, false
}

// LocateLatLonDepth is Locate in geographic coordinates (degrees, meters
// of depth below the surface).
func (g *Globe) LocateLatLonDepth(latDeg, lonDeg, depth float64) (Location, error) {
	return g.Locate(cubedsphere.LatLon(latDeg, lonDeg), g.Cfg.Model.SurfaceRadius()-depth)
}

// tanCell finds the tangent-grid cell containing value a and the
// reference coordinate within it.
func tanCell(grid []float64, a float64) (cell int, ref float64) {
	n := len(grid) - 1
	cell = sort.SearchFloat64s(grid, a) - 1
	if cell < 0 {
		cell = 0
	}
	if cell > n-1 {
		cell = n - 1
	}
	ref = clampRef(2*(a-grid[cell])/(grid[cell+1]-grid[cell]) - 1)
	return cell, ref
}

func clampRef(v float64) float64 { return clamp(v, -1, 1) }

// locateCube inverts the spherified-cube mapping along the ray through
// dir at the target radius.
func (g *Globe) locateCube(dir cubedsphere.Vec3, radius float64) (Location, error) {
	// Parameterize cube points along the ray as q = t*q0 with
	// max|q0| = 1; the physical radius grows monotonically with t.
	q0 := dir.Scale(1 / dir.MaxAbs())
	target := radius / g.rcc
	radiusOf := func(t float64) float64 {
		x, y, z := cubedsphere.CubePoint(t*q0[0], t*q0[1], t*q0[2], 1)
		return cubedsphere.Vec3{x, y, z}.Norm()
	}
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 80; iter++ {
		mid := 0.5 * (lo + hi)
		if radiusOf(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := 0.5 * (lo + hi)
	q := q0.Scale(t)

	// Cell indices and reference coordinates per axis, on the cube's
	// (possibly doubled-down) grid.
	grid := g.grid(g.cubeNex)
	var cells [3]int
	var ref [3]float64
	for c := 0; c < 3; c++ {
		cells[c], ref[c] = tanCell(grid, q[c])
	}
	owner := g.Decomp.CentralCubeOwnerAt(g.cubeNex, cells[0], cells[1], cells[2])
	// Element index: cube cells append after the shell elements in the
	// owner's cubeCells order.
	elem := -1
	for idx, cell := range g.cubeCells[owner] {
		if cell == cells {
			elem = g.cubeBase[owner] + idx
			break
		}
	}
	if elem < 0 {
		return Location{}, fmt.Errorf("meshfem: cube cell %v not found on rank %d", cells, owner)
	}
	return Location{
		Rank: owner,
		Kind: g.cubeReg,
		Elem: elem,
		Ref:  ref,
		Pos:  dir.Scale(radius),
	}, nil
}

// PointAt evaluates the mesh geometry at a location by GLL interpolation
// of the stored element point coordinates; used by tests to verify
// Locate and by interpolated seismogram recording.
func (g *Globe) PointAt(loc Location) (cubedsphere.Vec3, error) {
	if loc.Rank < 0 || loc.Rank >= len(g.Locals) {
		return cubedsphere.Vec3{}, fmt.Errorf("meshfem: bad rank %d", loc.Rank)
	}
	reg := g.Locals[loc.Rank].Regions[loc.Kind]
	if reg == nil || loc.Elem < 0 || loc.Elem >= reg.NSpec {
		return cubedsphere.Vec3{}, fmt.Errorf("meshfem: bad element %d", loc.Elem)
	}
	p := mesh.InterpolateGeometry(reg, loc.Elem, loc.Ref)
	return cubedsphere.Vec3{p[0], p[1], p[2]}, nil
}
