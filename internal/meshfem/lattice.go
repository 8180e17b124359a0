package meshfem

import (
	"fmt"

	"specglobe/internal/cubedsphere"
	"specglobe/internal/mesh"
)

// Lattice numbering. Every GLL node of a rank's region has a slot in an
// integer lattice computed from what the element loop already knows —
// the radial sheet or middle block, the slice-local GLL indices at that
// layer's lateral resolution, the doubling template's node table, the
// central cube's 3-D index — and a point's number is the first-sight
// order of its slot, kept in one dense []int32. Coincident nodes of
// adjacent elements have the same slot by construction, so no
// coordinate is ever compared: within a rank, numbering does not rely on
// the exact float64 keys the geometry is careful to produce (the
// cross-rank halo match still does).

// dGLL is the number of GLL intervals along an element edge.
const dGLL = mesh.NGLL - 1

// shellLattice lays out one region's shell slots; it depends on the
// layer specs and the per-slice element counts only, so every rank
// shares it. Sheet s holds the nodes at the bottom of layer s (the top
// of layer s-1), sheetW[s] nodes wide along xi; mid[li] is the first
// slot of the nodes strictly between layer li's two sheets, midW[li]
// the width of one of its planes. The slots biject onto the shell's
// points, so points is the shell's exact point count.
type shellLattice struct {
	sheet, sheetW []int
	mid, midW     []int
	points        int
}

// plane is one family of lattice planes of a layer: a node with plane
// coordinates (u, v) sits at base + u + w*v. In a doubling layer u is
// the template's in-plane coordinate copy*stride + offset and v the
// extrusion line (xi doubling), or the reverse (eta doubling).
type plane struct{ base, w, stride int }

// The doubling template's node planes, indexing tmplNode.plane.
const (
	tmplTop = iota // the layer's top (fine) sheet
	tmplBot        // its bottom (coarse) sheet
	tmplMid        // the middle block
)

// tmplNode places one GLL node of a doubling-template quad in its copy:
// off is the node's in-plane coordinate relative to the copy's origin,
// which advances by the plane's stride from copy to copy.
type tmplNode struct {
	plane int
	off   int
}

// dblMidPerCopy is the number of middle-block nodes one template copy
// adds in its plane: everything but its top and bottom sheet nodes and
// the left edge's interior, which belongs to the copy before it.
const dblMidPerCopy = 9 + 15*(dGLL-1) + 6*(dGLL-1)*(dGLL-1) - 6*dGLL

// dblMidWidth is the width of the middle plane of m side-by-side
// template copies: the copies' own nodes plus the first left edge.
func dblMidWidth(m int) int { return m*dblMidPerCopy + dGLL - 1 }

// dblNodes[q][is][it] places GLL node (is, it) of template quad q. It is
// derived from the quads' corner lists alone (see dblTemplate): a node
// is a corner vertex, a node of the edge between two vertices — symLerp
// walks an edge identically from either end, so an edge node is named by
// its unordered vertex pair and its index from the lower one — or a
// node inside one quad.
var dblNodes = func() (tab [6][mesh.NGLL][mesh.NGLL]tmplNode) {
	// Vertices: top T0..T4 (0-4), bottom B0..B2 (5-7), interior A, B,
	// C (8-10); T4 and B2 are the next copy's T0 and B0.
	const t0, b0, va, vb, vc = 0, 5, 8, 9, 10
	corners := [6][4]int{ // (P00, P10, P11, P01), as in dblTemplate
		{b0, va, t0 + 1, t0},
		{b0, b0 + 1, vb, va},
		{va, vb, t0 + 2, t0 + 1},
		{b0 + 1, b0 + 2, vc, vb},
		{vb, vc, t0 + 3, t0 + 2},
		{vc, b0 + 2, t0 + 4, t0 + 3},
	}
	// onSheet places vertex v, or the node k steps from vertex u toward
	// v, on the top or bottom sheet.
	onSheet := func(u, v, k int) (tmplNode, bool) {
		switch {
		case u < b0 && v < b0:
			return tmplNode{tmplTop, dGLL*min(u, v) + k}, true
		case u >= b0 && u < va && v >= b0 && v < va:
			return tmplNode{tmplBot, dGLL*(min(u, v)-b0) + k}, true
		}
		return tmplNode{}, false
	}
	type edgeNode struct{ u, v, k int }
	own := map[edgeNode]int{} // interior vertices and edge nodes
	next := dGLL - 1          // 0..dGLL-2 are the left edge's interior
	// The side edges T0-B0 and T4-B2 are numbered upward from the
	// bottom: the copy's right edge is the next copy's left edge.
	middle := func(key edgeNode) tmplNode {
		switch {
		case key.u == t0 && key.v == b0:
			return tmplNode{tmplMid, dGLL - key.k - 1}
		case key.u == t0+4 && key.v == b0+2:
			return tmplNode{tmplMid, dblMidPerCopy + dGLL - key.k - 1}
		}
		off, ok := own[key]
		if !ok {
			off = next
			own[key] = off
			next++
		}
		return tmplNode{tmplMid, off}
	}
	for q, c := range corners {
		for it := 0; it < mesh.NGLL; it++ {
			for is := 0; is < mesh.NGLL; is++ {
				// The node's edge (u, v, k from u), or a vertex (u == v).
				var u, v, k int
				switch {
				case it == 0:
					u, v, k = c[0], c[1], is
				case it == dGLL:
					u, v, k = c[3], c[2], is
				case is == 0:
					u, v, k = c[0], c[3], it
				case is == dGLL:
					u, v, k = c[1], c[2], it
				default:
					tab[q][is][it] = middle(edgeNode{-1 - q, is, it})
					continue
				}
				switch k {
				case 0:
					v = u
				case dGLL:
					u, k = v, 0
				}
				if u > v {
					u, v, k = v, u, dGLL-k
				}
				if n, ok := onSheet(u, v, k); ok {
					tab[q][is][it] = n
				} else {
					tab[q][is][it] = middle(edgeNode{u, v, k})
				}
			}
		}
	}
	if next != dblMidPerCopy {
		panic(fmt.Sprintf("meshfem: doubling template has %d middle nodes per copy, want %d", next, dblMidPerCopy))
	}
	return tab
}()

// lattice numbers one region of one rank: id[slot] is the point number
// of a slot, negative until the slot is first seen, and pts is the
// region's point list at its exact final length.
type lattice struct {
	id  []int32
	pts [][3]float64
	n   int32
}

// reset sizes the slot array to a region's slots, all unseen, reusing
// its storage; the caller sets pts and n.
func (l *lattice) reset(slots int) {
	if cap(l.id) < slots {
		l.id = make([]int32, slots)
	}
	l.id = l.id[:slots]
	for i := range l.id {
		l.id[i] = -1
	}
}

// point returns the number of the point in slot, numbering it (and
// recording its position) on first sight.
func (l *lattice) point(slot int, p cubedsphere.Vec3) int32 {
	id := l.id[slot]
	if id < 0 {
		id = l.n
		l.n++
		l.id[slot] = id
		l.pts[id] = p
	}
	return id
}

// cubeLattice places the central-cube nodes of one rank. Cube node
// (I, J, K) — the GLL index along x, y, z across the whole cube — on the
// rank's chunk face is the region's bottom-sheet node there (the
// spherified cube's surface is the chunk bottom point for point); every
// other node takes a slot in a block spanning the bounding box of the
// rank's cells. A cell of the rank touches its chunk's face only inside
// the rank's slice (CentralCubeOwnerAt assigns a cell to the slice
// holding its lateral indices), so a face node is always a sheet node.
type cubeLattice struct {
	sheet    plane
	normal   int // axis of the chunk's face normal
	fixed    int // the face's node index along normal
	uAxis    int // axis of the chunk's xi direction
	vAxis    int // axis of its eta direction
	iLo, jLo int // the slice's first cube node index along xi and eta
	lo, w    [3]int
	base     int
}

// newCubeLattice lays out the cube block of rank after base slots.
func (g *Globe) newCubeLattice(rank, si, base int) cubeLattice {
	lat := &g.shell[si]
	s, ilo, _, jlo, _ := g.sliceRangeAt(rank, g.cubeNex, g.cubeNex)
	n, u, v := s.Chunk.Triad()
	c := cubeLattice{
		sheet: plane{base: lat.sheet[0], w: lat.sheetW[0]},
		iLo:   dGLL * ilo, jLo: dGLL * jlo,
		base: base,
	}
	c.normal, c.uAxis, c.vAxis = axisOf(n), axisOf(u), axisOf(v)
	if n[c.normal] > 0 {
		c.fixed = dGLL * g.cubeNex
	}
	cells := g.cubeCells[rank]
	if len(cells) == 0 {
		return c
	}
	hi := cells[0]
	c.lo = cells[0]
	for _, cell := range cells {
		for a := 0; a < 3; a++ {
			c.lo[a], hi[a] = min(c.lo[a], cell[a]), max(hi[a], cell[a])
		}
	}
	for a := 0; a < 3; a++ {
		c.w[a] = dGLL*(hi[a]-c.lo[a]+1) + 1
		c.lo[a] *= dGLL
	}
	return c
}

// axisOf returns the axis of a canonical unit vector. A chunk's xi and
// eta directions point along +axes (Triad), so its GLL indices and the
// cube's increase together; only the face normal can point along -axis.
func axisOf(v cubedsphere.Vec3) int {
	for a := range v {
		if v[a] != 0 {
			return a
		}
	}
	panic("meshfem: zero triad vector")
}

// slots returns the number of slots of the cube block.
func (c *cubeLattice) slots() int { return c.w[0] * c.w[1] * c.w[2] }

// slot returns the lattice slot of cube node ijk.
func (c *cubeLattice) slot(ijk [3]int) int {
	if ijk[c.normal] == c.fixed {
		return c.sheet.base + (ijk[c.uAxis] - c.iLo) + c.sheet.w*(ijk[c.vAxis]-c.jLo)
	}
	return c.base + (ijk[0] - c.lo[0]) + c.w[0]*((ijk[1]-c.lo[1])+c.w[1]*(ijk[2]-c.lo[2]))
}

// cellSlots writes the slots of cube cell's nodes, in node order.
func (c *cubeLattice) cellSlots(cell [3]int, slot *[mesh.NGLL3]int) {
	for n := range slot {
		ia, ib, ic := n%mesh.NGLL, n/mesh.NGLL%mesh.NGLL, n/mesh.NGLL2
		slot[n] = c.slot([3]int{dGLL*cell[0] + ia, dGLL*cell[1] + ib, dGLL*cell[2] + ic})
	}
}

// column is one shell element column's lateral node table: for each of
// the 25 lateral nodes, the gnomonic direction of the position (symLerp
// coordinates) and the direction with its two tangent derivatives for
// the Jacobian (plain lerp coordinates), plus the column's tangent
// extents. Every radial layer at the column's resolution and the
// coupling and surface faces read it.
type column struct {
	da, db              float64 // a1-a0, b1-b0
	posDir, dda, ddb, d [mesh.NGLL2]cubedsphere.Vec3
}

// columnSet is a rank's columns at one lateral resolution, indexed
// (j-jlo)*perXi + (i-ilo).
type columnSet struct {
	nexXi, nexEta int
	cols          []column
}

// columns returns the rank's column tables at a lateral resolution,
// building them on first use.
func (f *elemFiller) columns(nexXi, nexEta int) []column {
	for _, cs := range f.colSets {
		if cs.nexXi == nexXi && cs.nexEta == nexEta {
			return cs.cols
		}
	}
	s, ilo, ihi, jlo, jhi := f.g.sliceRangeAt(f.rank, nexXi, nexEta)
	gx, gy := f.g.grid(nexXi), f.g.grid(nexEta)
	cols := make([]column, 0, (ihi-ilo)*(jhi-jlo))
	for j := jlo; j < jhi; j++ {
		for i := ilo; i < ihi; i++ {
			a0, a1, b0, b1 := gx[i], gx[i+1], gy[j], gy[j+1]
			c := column{da: a1 - a0, db: b1 - b0}
			for ib := 0; ib < mesh.NGLL; ib++ {
				for ia := 0; ia < mesh.NGLL; ia++ {
					q := ia + mesh.NGLL*ib
					c.posDir[q] = cubedsphere.DirectionTan(s.Chunk, symLerp(a0, a1, ia), symLerp(b0, b1, ib))
					c.dda[q], c.ddb[q], c.d[q] = tanDerivs(s.Chunk, lerp(a0, a1, gllS[ia]), lerp(b0, b1, gllS[ib]))
				}
			}
			cols = append(cols, c)
		}
	}
	f.colSets = append(f.colSets, columnSet{nexXi, nexEta, cols})
	return cols
}
