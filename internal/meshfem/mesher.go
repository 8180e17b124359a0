// Package meshfem is the globe mesher (the MESHFEM3D part of the
// package): it builds the cubed-sphere spectral-element mesh of the
// whole Earth — crust/mantle, fluid outer core, inner-core shell and
// inflated central cube, with optional depth-graded lateral resolution
// through conforming mesh-doubling layers whose radii can be derived
// from the model's wavelength profile (the paper's section 3 rule of
// ~5 grid points per shortest wavelength) — distributed over
// 6*NPROC_XI^2 mesh slices, assigns material properties from a radial
// Earth model, and derives the fluid-solid coupling faces, free-surface
// load data and halo communication plans the solver needs.
package meshfem

import (
	"fmt"
	"sort"

	"specglobe/internal/cubedsphere"
	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

// Config controls a mesh build.
type Config struct {
	// NexXi is NEX_XI: the number of spectral elements along each side
	// of each of the six chunks at the surface.
	NexXi int
	// NProcXi is NPROC_XI: slices per chunk side; total ranks are
	// 6*NProcXi^2.
	NProcXi int
	// Model supplies the radial material model. Ranks are built on
	// several goroutines, so its methods must tolerate concurrent calls
	// (the shipped models are immutable).
	Model earthmodel.Model
	// CubeFrac sets the central-cube radius as a fraction of the
	// innermost region's top radius. Zero selects the default 0.5.
	CubeFrac float64
	// Doublings lists the radii (meters) at which the mesher inserts a
	// mesh-doubling transition: below each listed radius the lateral
	// element count per chunk side halves (2:1 coarsening in both
	// angular directions, via a pair of conforming doubling layers), so
	// elements keep roughly constant aspect ratio with depth. Radii must
	// fall strictly inside a region, away from the CMB/ICB/cube
	// boundaries. At each doubling the fine per-slice element count
	// (nex/2^level / NProcXi) must be divisible by 4 — the lateral span
	// of one doubling template. Empty means a single angular resolution
	// unless AutoDoubling is set.
	Doublings []float64
	// AutoDoubling, when non-nil and Doublings is empty, derives the
	// doubling radii from the model's minimum-wavelength profile (see
	// PlanDoublings): a doubling wherever the local wavelength affords
	// halving the lateral resolution within the points-per-wavelength
	// budget. Explicit Doublings always win; the derived schedule is
	// recorded in the built Globe's Cfg.Doublings.
	AutoDoubling *AutoDoubling
	// TwoPassMaterials reproduces the legacy behavior the paper's
	// section 4.4 removed: the mesher runs twice, once to generate the
	// geometry and a second time to populate material properties.
	TwoPassMaterials bool
}

// Globe is the complete built mesh plus the metadata needed for fast
// point location and reporting.
type Globe struct {
	Cfg    Config
	Decomp cubedsphere.Decomp
	Locals []*mesh.Local
	Plans  []*mesh.HaloPlan
	// ShortestPeriod estimates the shortest resolvable seismic period
	// (5 points per wavelength rule) in seconds.
	ShortestPeriod float64
	// BuildPasses records how many geometry passes ran (2 in legacy
	// two-pass material mode).
	BuildPasses int

	specs []regionSpec
	// layerBase[si][l] is the element index of spec si's layer l within
	// a rank's region (identical across ranks: every slice owns the same
	// shell layer structure); layerCount[si][l] the per-rank element
	// count of that layer.
	layerBase, layerCount [][]int
	// shellElems[si] is the number of elements the shell layers of spec
	// si put on one rank, and shell[si] lays out their point lattice,
	// whose size is their exact point count: the region arrays and Pts
	// are allocated once, at their final lengths.
	shellElems []int
	shell      []shellLattice
	// grids holds the tangent-space node grid of every lateral
	// resolution level the layer specs use (chunks and central cube share
	// them). Build fills it before any rank is built and nothing writes
	// it afterwards: a finished Globe is read from several goroutines.
	grids   map[int][]float64
	rcc     float64 // central cube radius (0 if no cube region)
	cubeNex int     // cube cells per side (lateral count at the cube surface)
	cubeReg earthmodel.Region
	// cubeCells[rank] lists the cube cells owned by the rank in the
	// order they were appended to its innermost region.
	cubeCells [][][3]int
	cubeBase  []int // element index of the first cube cell per rank
}

// grid returns the tangent grid for a lateral level of the layer specs.
func (g *Globe) grid(nex int) []float64 {
	t, ok := g.grids[nex]
	if !ok {
		panic(fmt.Sprintf("meshfem: no tangent grid for lateral level %d", nex))
	}
	return t
}

// Build runs the mesher and returns the distributed mesh.
func Build(cfg Config) (*Globe, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("meshfem: config needs a model")
	}
	dec, err := cubedsphere.NewDecomp(cfg.NexXi, cfg.NProcXi)
	if err != nil {
		return nil, err
	}
	if cfg.CubeFrac == 0 {
		cfg.CubeFrac = 0.5
	}
	if !(cfg.CubeFrac >= 0.1 && cfg.CubeFrac <= 0.9) { // negated, so NaN is refused too
		return nil, fmt.Errorf("meshfem: CubeFrac %g outside [0.1, 0.9]", cfg.CubeFrac)
	}
	if len(cfg.Doublings) == 0 && cfg.AutoDoubling != nil {
		derived, err := PlanDoublings(cfg.Model, cfg.NexXi, cfg.NProcXi, cfg.CubeFrac, *cfg.AutoDoubling)
		if err != nil {
			return nil, err
		}
		cfg.Doublings = derived
	}
	doublings, err := validateDoublings(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Doublings = doublings

	specs, err := planRegions(cfg.Model, cfg.NexXi, cfg.CubeFrac, doublings)
	if err != nil {
		return nil, err
	}
	g := &Globe{
		Cfg:    cfg,
		Decomp: dec,
		specs:  specs,
		grids:  map[int][]float64{},
	}
	for _, sp := range g.specs {
		if sp.withCube {
			g.rcc = sp.rBot
			g.cubeReg = sp.kind
			g.cubeNex = sp.nexBot()
		}
		for _, l := range sp.layers {
			for _, nex := range [...]int{l.nexXi, l.nexEta, l.botXi(), l.botEta()} {
				if g.grids[nex] == nil {
					g.grids[nex] = cubedsphere.TanGrid(nex)
				}
			}
		}
	}
	if err := g.indexLayers(); err != nil {
		return nil, err
	}
	g.ShortestPeriod = estimatedShortestPeriod(cfg.Model, g.specs)

	// Pre-assign central cube cells to ranks at the cube's (possibly
	// doubled-down) resolution; they follow the shell elements of the
	// innermost region.
	nR := dec.NumRanks()
	g.cubeCells = make([][][3]int, nR)
	g.cubeBase = make([]int, nR)
	if g.rcc > 0 {
		for r := range g.cubeBase {
			g.cubeBase[r] = g.shellElems[g.specOf(g.cubeReg)]
		}
		for ci := 0; ci < g.cubeNex; ci++ {
			for cj := 0; cj < g.cubeNex; cj++ {
				for ck := 0; ck < g.cubeNex; ck++ {
					r := dec.CentralCubeOwnerAt(g.cubeNex, ci, cj, ck)
					g.cubeCells[r] = append(g.cubeCells[r], [3]int{ci, cj, ck})
				}
			}
		}
	}

	g.BuildPasses = 1
	if cfg.TwoPassMaterials {
		// Legacy mode (section 4.4, item 1): "the mesher was actually
		// run twice internally: once to generate the mesh of elements
		// (i.e., the geometry) and a second time to populate this
		// geometry with material properties". Reproduce the cost by
		// running the full generation once and discarding it; the
		// second (real) pass below produces the identical mesh.
		if _, err := g.buildRanks(); err != nil {
			return nil, err
		}
		g.BuildPasses = 2
	}
	if g.Locals, err = g.buildRanks(); err != nil {
		return nil, err
	}

	g.Plans, err = mesh.BuildHalo(g.Locals)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// validateDoublings sorts the configured doubling radii descending and
// checks that each falls strictly inside a region (a radius on or below
// a region boundary — CMB, ICB, cube surface — would be dropped by the
// per-region planner or halve the wrong side) and that the conforming
// templates' divisibility constraints hold at every level.
func validateDoublings(cfg Config) ([]float64, error) {
	if len(cfg.Doublings) == 0 {
		return nil, nil
	}
	doublings := append([]float64(nil), cfg.Doublings...)
	sort.Sort(sort.Reverse(sort.Float64Slice(doublings)))
	// Region boundaries, mirroring planRegions.
	surf := cfg.Model.SurfaceRadius()
	icb, cmb := cfg.Model.ICB(), cfg.Model.CMB()
	bounds := []float64{surf, cmb, icb, cfg.CubeFrac * icb}
	if !(icb > 0 && cmb > icb) {
		bounds = []float64{surf, cfg.CubeFrac * surf * 0.3}
	}
	inRegion := func(d float64) bool {
		for i := 0; i+1 < len(bounds); i++ {
			if d < bounds[i] && d > bounds[i+1] {
				return true
			}
		}
		return false
	}
	nex := cfg.NexXi
	for i, d := range doublings {
		if i > 0 && d == doublings[i-1] {
			return nil, fmt.Errorf("meshfem: duplicate doubling radius %g", d)
		}
		if !inRegion(d) {
			return nil, fmt.Errorf(
				"meshfem: doubling radius %g is not strictly inside a region (boundaries %v)",
				d, bounds)
		}
		per := nex / cfg.NProcXi
		if per%4 != 0 {
			return nil, fmt.Errorf(
				"meshfem: doubling at %g needs the per-slice element count %d (nex %d / NPROC_XI %d) divisible by 4",
				d, per, nex, cfg.NProcXi)
		}
		nex /= 2
		if nex%2 != 0 {
			return nil, fmt.Errorf("meshfem: doubling at %g leaves odd chunk-side count %d", d, nex)
		}
	}
	return doublings, nil
}

// indexLayers precomputes per-layer element bases and counts and the
// shell point lattice of every region (identical across ranks), and
// validates region-boundary resolutions.
func (g *Globe) indexLayers() error {
	np := g.Cfg.NProcXi
	g.layerBase = make([][]int, len(g.specs))
	g.layerCount = make([][]int, len(g.specs))
	g.shellElems = make([]int, len(g.specs))
	g.shell = make([]shellLattice, len(g.specs))
	for si := range g.specs {
		sp := &g.specs[si]
		lat := &g.shell[si]
		// sheet appends the node sheet of nx x ny elements per slice.
		sheet := func(nx, ny int) {
			lat.sheet = append(lat.sheet, lat.points)
			lat.sheetW = append(lat.sheetW, dGLL*nx+1)
			lat.points += (dGLL*nx + 1) * (dGLL*ny + 1)
		}
		base := 0
		for li, l := range sp.layers {
			nx, ny := l.nexXi/np, l.nexEta/np
			if li == 0 {
				sheet(l.botXi()/np, l.botEta()/np)
			}
			// The middle block: dGLL-1 inner sheets of a uniform layer,
			// or the template copies' middle plane times the extrusion.
			count, w, planes := 0, 0, 0
			switch l.kind {
			case layerUniform:
				count = nx * ny
				w, planes = dGLL*nx+1, (dGLL-1)*(dGLL*ny+1)
			case layerDoubleXi:
				count = (nx / 4) * 6 * ny
				w, planes = dblMidWidth(nx/4), dGLL*ny+1
			case layerDoubleEta:
				count = nx * (ny / 4) * 6
				w, planes = dGLL*nx+1, dblMidWidth(ny/4)
			}
			lat.mid = append(lat.mid, lat.points)
			lat.midW = append(lat.midW, w)
			lat.points += w * planes
			sheet(nx, ny)
			g.layerBase[si] = append(g.layerBase[si], base)
			g.layerCount[si] = append(g.layerCount[si], count)
			base += count
		}
		g.shellElems[si] = base
		// Adjacent layers must agree on the grid at their interface.
		for li := 0; li+1 < len(sp.layers); li++ {
			lo, hi := sp.layers[li], sp.layers[li+1]
			if lo.nexXi != hi.botXi() || lo.nexEta != hi.botEta() {
				return fmt.Errorf("meshfem: region %v layer %d/%d lateral counts mismatch (%dx%d vs %dx%d)",
					sp.kind, li, li+1, lo.nexXi, lo.nexEta, hi.botXi(), hi.botEta())
			}
		}
	}
	// Region boundaries must match across regions (CMB, ICB) and the
	// cube surface; the global doubling schedule guarantees this, so a
	// failure here is a planner bug.
	for si := 0; si+1 < len(g.specs); si++ {
		upper, lower := &g.specs[si], &g.specs[si+1]
		if upper.nexBot() != lower.nexTop() {
			return fmt.Errorf("meshfem: regions %v/%v meet at %g with lateral counts %d vs %d",
				upper.kind, lower.kind, upper.rBot, upper.nexBot(), lower.nexTop())
		}
	}
	return nil
}

// sliceRangeAt returns the [lo, hi) element index ranges of a rank's
// slice along xi and eta at the given lateral resolutions.
func (g *Globe) sliceRangeAt(rank, nexXi, nexEta int) (s cubedsphere.Slice, ilo, ihi, jlo, jhi int) {
	s = g.Decomp.SliceOf(rank)
	ilo, ihi = g.Decomp.ElemRangeAt(nexXi, s.PXi)
	jlo, jhi = g.Decomp.ElemRangeAt(nexEta, s.PEta)
	return s, ilo, ihi, jlo, jhi
}

// uniformElemIndex returns the local element index of shell element
// (i, j) in uniform layer li of spec si, matching the append order of
// buildRank (layer-major, then eta, then xi).
func (g *Globe) uniformElemIndex(si, li, rank, i, j int) int {
	l := g.specs[si].layers[li]
	_, ilo, _, jlo, _ := g.sliceRangeAt(rank, l.nexXi, l.nexEta)
	perXi := g.Decomp.NexPerSliceAt(l.nexXi)
	return g.layerBase[si][li] + (j-jlo)*perXi + (i - ilo)
}

// specOf returns the spec index for a region kind (-1 if absent).
func (g *Globe) specOf(kind earthmodel.Region) int {
	for si := range g.specs {
		if g.specs[si].kind == kind {
			return si
		}
	}
	return -1
}

// buildRanks builds every rank's local mesh, min(GOMAXPROCS, ranks) at
// a time: a slice's mesh depends on no other slice's (the paper's
// per-slice mesher), buildRank only reads g, and each result lands in
// its rank's slot, so the outcome does not depend on the schedule.
func (g *Globe) buildRanks() ([]*mesh.Local, error) {
	nR := g.Decomp.NumRanks()
	locals := make([]*mesh.Local, nR)
	errs := make([]error, nR)
	mesh.ForEach(nR, func(rank int) {
		locals[rank], errs[rank] = g.buildRank(rank)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return locals, nil
}

// buildRank constructs the full local mesh for one rank.
func (g *Globe) buildRank(rank int) (*mesh.Local, error) {
	local := &mesh.Local{Rank: rank}
	for kind := 0; kind < 3; kind++ {
		local.Regions[kind] = mesh.NewRegion(earthmodel.Region(kind), 0)
	}
	f := &elemFiller{g: g, rank: rank}
	for si := range g.specs {
		reg, err := f.region(si)
		if err != nil {
			return nil, fmt.Errorf("meshfem: rank %d: %w", rank, err)
		}
		local.Regions[reg.Kind] = reg
	}
	f.coupling(local)
	f.surface(local)
	return local, nil
}

// elemFiller appends elements to one region of one rank at a time: each
// element family fills the node table and its lattice slots, emit turns
// it into the region's arrays. The lattice's slot array and the column
// tables live as long as the rank's build.
type elemFiller struct {
	g       *Globe
	rank    int
	reg     *mesh.Region
	lat     lattice
	colSets []columnSet
	e       int // next element index
	nodes   elemNodes
	// trace, when set, sees every element's node table as it is
	// emitted (the numbering oracle of the tests).
	trace func(e int, t *elemNodes)
}

// region builds the rank's region for spec si: its shell layers bottom
// to top, then the central-cube cells the rank owns.
func (f *elemFiller) region(si int) (*mesh.Region, error) {
	g, sp := f.g, &f.g.specs[si]
	nSpec, slots, points := g.shellElems[si], g.shell[si].points, g.shell[si].points
	var cube cubeLattice
	if sp.withCube {
		cube = g.newCubeLattice(f.rank, si, slots)
		nSpec += len(g.cubeCells[f.rank])
		slots += cube.slots()
	}
	f.reg = mesh.NewRegion(sp.kind, nSpec)
	f.lat.reset(slots)
	if sp.withCube {
		// Count the cube block's nodes (the shell holds the rest),
		// marking each slot seen (-2 stays "unnumbered"), so Pts is
		// allocated once.
		for _, cell := range g.cubeCells[f.rank] {
			cube.cellSlots(cell, &f.nodes.slot)
			for _, s := range f.nodes.slot {
				if s >= cube.base && f.lat.id[s] == -1 {
					f.lat.id[s] = -2
					points++
				}
			}
		}
	}
	f.lat.pts, f.lat.n = make([][3]float64, points), 0
	f.e = 0
	for li, l := range sp.layers {
		if f.e != g.layerBase[si][li] {
			return nil, fmt.Errorf("region %v layer %d: element base drift %d != %d",
				sp.kind, li, f.e, g.layerBase[si][li])
		}
		var err error
		switch l.kind {
		case layerUniform:
			err = f.uniformLayer(si, li)
		case layerDoubleXi:
			err = f.doubleXiLayer(si, li)
		case layerDoubleEta:
			err = f.doubleEtaLayer(si, li)
		}
		if err != nil {
			return nil, err
		}
	}
	if sp.withCube {
		ct := g.grid(g.cubeNex)
		for _, cell := range g.cubeCells[f.rank] {
			f.nodes.cube(ct[cell[0]], ct[cell[0]+1], ct[cell[1]], ct[cell[1]+1], ct[cell[2]], ct[cell[2]+1], g.rcc)
			cube.cellSlots(cell, &f.nodes.slot)
			if err := f.emit(); err != nil {
				return nil, err
			}
		}
	}
	if int(f.lat.n) != points {
		return nil, fmt.Errorf("region %v: numbered %d points, lattice holds %d", sp.kind, f.lat.n, points)
	}
	reg := f.reg
	reg.NGlob, reg.Pts = points, f.lat.pts
	f.lat.pts = nil
	return reg, reg.Finish()
}

// emit writes the geometry and material of the element in the node
// table as element e and advances e. Properties are assigned right
// after the element is created: the merged single-pass strategy of
// section 4.4.
func (f *elemFiller) emit() error {
	if f.trace != nil {
		f.trace(f.e, &f.nodes)
	}
	if err := fillElement(f.reg, &f.lat, f.e, &f.nodes); err != nil {
		return err
	}
	assignMaterial(f.g.Cfg.Model, f.reg, f.e, &f.nodes)
	f.e++
	return nil
}

// uniformLayer appends layer li of spec si, a uniform layer, eta-major,
// then xi. Node (ia, ib, k) of element (i, j) sits at slice-local
// lateral index (4i+ia, 4j+ib) of the bottom sheet (k = 0), of the top
// sheet (k = 4) or of inner sheet k-1 of the middle block.
func (f *elemFiller) uniformLayer(si, li int) error {
	l, lat := f.g.specs[si].layers[li], &f.g.shell[si]
	_, ilo, ihi, jlo, jhi := f.g.sliceRangeAt(f.rank, l.nexXi, l.nexEta)
	cols := f.columns(l.nexXi, l.nexEta)
	w, inner := lat.sheetW[li], lat.sheetW[li]*(dGLL*(jhi-jlo)+1)
	// off[n] is node n's slot in the slice's first element.
	var off [mesh.NGLL3]int
	for n := range off {
		ia, ib, k := n%mesh.NGLL, n/mesh.NGLL%mesh.NGLL, n/mesh.NGLL2
		switch k {
		case 0:
			off[n] = lat.sheet[li]
		case dGLL:
			off[n] = lat.sheet[li+1]
		default:
			off[n] = lat.mid[li] + (k-1)*inner
		}
		off[n] += ia + w*ib
	}
	for j := jlo; j < jhi; j++ {
		for i := ilo; i < ihi; i++ {
			at := dGLL * ((i - ilo) + w*(j-jlo))
			for n := range off {
				f.nodes.slot[n] = at + off[n]
			}
			f.nodes.shell(&cols[(j-jlo)*(ihi-ilo)+(i-ilo)], l.r0, l.r1)
			if err := f.emit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// dblPlanes returns layer li's three lattice plane families, indexed by
// tmplNode.plane: top sheet, bottom sheet, middle block.
func (lat *shellLattice) dblPlanes(li int) [3]plane {
	return [3]plane{
		tmplTop: {lat.sheet[li+1], lat.sheetW[li+1], 4 * dGLL},
		tmplBot: {lat.sheet[li], lat.sheetW[li], 2 * dGLL},
		tmplMid: {lat.mid[li], lat.midW[li], dblMidPerCopy},
	}
}

// doubleXiLayer appends layer li of spec si, an xi-doubling layer: per
// fine eta row, one 6-element template copy per 4 fine xi columns
// (eta-major, then copy, then template quad). A node's plane coordinates
// are its template position along xi and its extrusion line along eta.
func (f *elemFiller) doubleXiLayer(si, li int) error {
	l := f.g.specs[si].layers[li]
	s, ilo, ihi, jlo, jhi := f.g.sliceRangeAt(f.rank, l.nexXi, l.nexEta)
	gx, gy := f.g.grid(l.nexXi), f.g.grid(l.nexEta)
	planes := f.g.shell[si].dblPlanes(li)
	for j := jlo; j < jhi; j++ {
		for f0 := ilo; f0 < ihi; f0 += 4 {
			c := (f0 - ilo) / 4
			quads := dblTemplate([5]float64(gx[f0:f0+5]), l.r0, l.r1)
			for q := range quads {
				for n := range f.nodes.slot {
					ia, ib, ir := n%mesh.NGLL, n/mesh.NGLL%mesh.NGLL, n/mesh.NGLL2
					tn := dblNodes[q][ia][ir]
					p := planes[tn.plane]
					f.nodes.slot[n] = p.base + c*p.stride + tn.off + p.w*(dGLL*(j-jlo)+ib)
				}
				f.nodes.doubleXi(s.Chunk, &quads[q], gy[j], gy[j+1])
				if err := f.emit(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// doubleEtaLayer appends layer li of spec si, an eta-doubling layer: one
// 6-element template copy per 4 fine eta rows, extruded across the
// (already coarse) xi columns (copy-major, then template quad, then xi).
// A node's plane coordinates are its extrusion line along xi and its
// template position along eta.
func (f *elemFiller) doubleEtaLayer(si, li int) error {
	l := f.g.specs[si].layers[li]
	s, ilo, ihi, jlo, jhi := f.g.sliceRangeAt(f.rank, l.nexXi, l.nexEta)
	gx, gy := f.g.grid(l.nexXi), f.g.grid(l.nexEta)
	planes := f.g.shell[si].dblPlanes(li)
	for f0 := jlo; f0 < jhi; f0 += 4 {
		c := (f0 - jlo) / 4
		quads := dblTemplate([5]float64(gy[f0:f0+5]), l.r0, l.r1)
		for q := range quads {
			for i := ilo; i < ihi; i++ {
				for n := range f.nodes.slot {
					ia, ib, ir := n%mesh.NGLL, n/mesh.NGLL%mesh.NGLL, n/mesh.NGLL2
					tn := dblNodes[q][ib][ir]
					p := planes[tn.plane]
					f.nodes.slot[n] = p.base + dGLL*(i-ilo) + ia + p.w*(c*p.stride+tn.off)
				}
				f.nodes.doubleEta(s.Chunk, &quads[q], gx[i], gx[i+1])
				if err := f.emit(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// assignMaterial populates the material arrays of element e from the
// radial model: one sample per radial level where the element's levels
// are spherical, one per node otherwise.
func assignMaterial(model earthmodel.Model, reg *mesh.Region, e int, t *elemNodes) {
	fluid := reg.IsFluid()
	set := func(ip int, m earthmodel.Material) {
		reg.Rho[ip] = float32(m.Rho)
		reg.Kappa[ip] = float32(m.Kappa())
		if fluid {
			reg.Mu[ip] = 0
		} else {
			reg.Mu[ip] = float32(m.Mu())
		}
	}
	// rSum accumulates node by node, as the mean radius always has.
	var rSum float64
	for k := 0; k < mesh.NGLL; k++ {
		level := e*mesh.NGLL3 + k*mesh.NGLL2
		if t.radial {
			set(level, model.At(t.rad[k]))
			rSum += t.rad[k]
			for q := 1; q < mesh.NGLL2; q++ {
				reg.Rho[level+q], reg.Kappa[level+q], reg.Mu[level+q] = reg.Rho[level], reg.Kappa[level], reg.Mu[level]
				rSum += t.rad[k]
			}
			continue
		}
		for q := 0; q < mesh.NGLL2; q++ {
			r := t.pos[k*mesh.NGLL2+q].Norm()
			set(level+q, model.At(r))
			rSum += r
		}
	}
	mc := model.At(rSum / float64(mesh.NGLL3))
	reg.Qmu[e] = float32(mc.Qmu)
	reg.Qkappa[e] = float32(mc.Qkappa)
}

// coupling derives the rank's fluid-solid coupling faces (CMB and ICB).
// Both sides of each boundary live on the same rank because slices own
// full radial columns; region boundaries always sit in uniform bands, at
// the lateral resolution the doubling schedule dictates there, so the
// faces read the column tables the layers were built from.
func (f *elemFiller) coupling(local *mesh.Local) {
	g, rank := f.g, f.rank
	oc := local.Regions[earthmodel.RegionOuterCore]
	if oc == nil || oc.NSpec == 0 {
		return
	}
	ocSI := g.specOf(earthmodel.RegionOuterCore)
	cmSI := g.specOf(earthmodel.RegionCrustMantle)
	icSI := g.specOf(earthmodel.RegionInnerCore)
	ocSpec := &g.specs[ocSI]
	cm := local.Regions[earthmodel.RegionCrustMantle]
	ic := local.Regions[earthmodel.RegionInnerCore]
	topK := mesh.NGLL - 1

	// CMB: fluid top face against crust/mantle bottom face.
	ocTop := len(ocSpec.layers) - 1
	nexCMB := ocSpec.nexTop()
	_, ilo, ihi, jlo, jhi := g.sliceRangeAt(rank, nexCMB, nexCMB)
	cols := f.columns(nexCMB, nexCMB)
	lt := ocSpec.layers[ocTop]
	for j := jlo; j < jhi; j++ {
		for i := ilo; i < ihi; i++ {
			fe := g.uniformElemIndex(ocSI, ocTop, rank, i, j)
			se := g.uniformElemIndex(cmSI, 0, rank, i, j)
			var cf mesh.CoupleFace
			cf.SolidKind = earthmodel.RegionCrustMantle
			nrm, wgt := faceQuad(&cols[(j-jlo)*(ihi-ilo)+(i-ilo)], lerp(lt.r0, lt.r1, 1))
			for q := 0; q < mesh.NGLL2; q++ {
				qi, qj := q%mesh.NGLL, q/mesh.NGLL
				cf.FluidPt[q] = oc.Ibool[mesh.Idx(fe, qi, qj, topK)]
				cf.SolidPt[q] = cm.Ibool[mesh.Idx(se, qi, qj, 0)]
				cf.Nx[q] = float32(nrm[q][0]) // fluid outward = +radial at CMB
				cf.Ny[q] = float32(nrm[q][1])
				cf.Nz[q] = float32(nrm[q][2])
				cf.Weight[q] = float32(wgt[q])
			}
			local.CMB = append(local.CMB, cf)
		}
	}

	// ICB: fluid bottom face against inner-core shell top face.
	if icSI < 0 || ic == nil || ic.NSpec == 0 {
		return
	}
	icSpec := &g.specs[icSI]
	icTop := len(icSpec.layers) - 1
	nexICB := ocSpec.nexBot()
	_, ilo, ihi, jlo, jhi = g.sliceRangeAt(rank, nexICB, nexICB)
	cols = f.columns(nexICB, nexICB)
	lb := ocSpec.layers[0]
	for j := jlo; j < jhi; j++ {
		for i := ilo; i < ihi; i++ {
			fe := g.uniformElemIndex(ocSI, 0, rank, i, j)
			se := g.uniformElemIndex(icSI, icTop, rank, i, j)
			var icf mesh.CoupleFace
			icf.SolidKind = earthmodel.RegionInnerCore
			nrm, wgt := faceQuad(&cols[(j-jlo)*(ihi-ilo)+(i-ilo)], lerp(lb.r0, lb.r1, 0))
			for q := 0; q < mesh.NGLL2; q++ {
				qi, qj := q%mesh.NGLL, q/mesh.NGLL
				icf.FluidPt[q] = oc.Ibool[mesh.Idx(fe, qi, qj, 0)]
				icf.SolidPt[q] = ic.Ibool[mesh.Idx(se, qi, qj, topK)]
				// Fluid outward normal at the ICB points inward
				// (toward the center): negate the radial normal.
				icf.Nx[q] = float32(-nrm[q][0])
				icf.Ny[q] = float32(-nrm[q][1])
				icf.Nz[q] = float32(-nrm[q][2])
				icf.Weight[q] = float32(wgt[q])
			}
			local.ICB = append(local.ICB, icf)
		}
	}
}

// surface collects the free-surface points of the rank's crust/mantle
// region with assembled area weights and outward normals, for the ocean
// load approximation.
func (f *elemFiller) surface(local *mesh.Local) {
	g, rank := f.g, f.rank
	cmSI := g.specOf(earthmodel.RegionCrustMantle)
	if cmSI < 0 {
		return
	}
	cmSpec := &g.specs[cmSI]
	cm := local.Regions[earthmodel.RegionCrustMantle]
	topL := len(cmSpec.layers) - 1
	lt := cmSpec.layers[topL]
	_, ilo, ihi, jlo, jhi := g.sliceRangeAt(rank, lt.nexXi, lt.nexEta)
	cols := f.columns(lt.nexXi, lt.nexEta)
	topK := mesh.NGLL - 1

	// slot[pt] is 1 + the position of surface point pt in area/nrm; the
	// top sheet's point count is known, and walking slot in point order
	// at the end emits the points ascending.
	slot := make([]int32, cm.NGlob)
	nSurf := ((ihi-ilo)*(mesh.NGLL-1) + 1) * ((jhi-jlo)*(mesh.NGLL-1) + 1)
	area := make([]float64, 0, nSurf)
	nrms := make([]cubedsphere.Vec3, 0, nSurf)
	for j := jlo; j < jhi; j++ {
		for i := ilo; i < ihi; i++ {
			e := g.uniformElemIndex(cmSI, topL, rank, i, j)
			nrm, wgt := faceQuad(&cols[(j-jlo)*(ihi-ilo)+(i-ilo)], lerp(lt.r0, lt.r1, 1))
			for q := 0; q < mesh.NGLL2; q++ {
				qi, qj := q%mesh.NGLL, q/mesh.NGLL
				pt := cm.Ibool[mesh.Idx(e, qi, qj, topK)]
				if slot[pt] == 0 {
					area = append(area, 0)
					nrms = append(nrms, cubedsphere.Vec3{})
					slot[pt] = int32(len(area))
				}
				area[slot[pt]-1] += wgt[q]
				nrms[slot[pt]-1] = nrm[q]
			}
		}
	}
	sl := &local.Surface
	sl.WaterRho = 1020
	sl.WaterDepth = g.Cfg.Model.OceanDepth()
	n := len(area)
	sl.Pts = make([]int32, 0, n)
	sl.Nx, sl.Ny, sl.Nz = make([]float32, 0, n), make([]float32, 0, n), make([]float32, 0, n)
	sl.AreaW = make([]float32, 0, n)
	for pt, at := range slot {
		if at == 0 {
			continue
		}
		sl.Pts = append(sl.Pts, int32(pt))
		sl.Nx = append(sl.Nx, float32(nrms[at-1][0]))
		sl.Ny = append(sl.Ny, float32(nrms[at-1][1]))
		sl.Nz = append(sl.Nz, float32(nrms[at-1][2]))
		sl.AreaW = append(sl.AreaW, float32(area[at-1]))
	}
}

// TotalElements returns the global element count.
func (g *Globe) TotalElements() int {
	n := 0
	for _, l := range g.Locals {
		n += l.TotalElements()
	}
	return n
}

// TotalPoints returns the global count of distinct (region, point) DOF
// sites, counting interface copies once per rank pair as stored.
func (g *Globe) TotalPoints() int {
	n := 0
	for _, l := range g.Locals {
		n += l.TotalPoints()
	}
	return n
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
