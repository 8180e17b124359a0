package mesh

// Coloring partitions each region's elements into conflict-free color
// classes: no two elements of the same color share a global GLL point
// (an entry of Ibool). This is the mesh-coloring technique SPECFEM uses
// to make the shared-point force accumulation safe to run in parallel
// without atomics or per-point locks — within one color every element
// writes a disjoint set of acceleration entries, so a worker pool can
// sweep the class in any order and any chunking while producing the
// exact same float32 sums. Colors are processed one after another with
// a barrier in between, which fixes the cross-color accumulation order
// and makes the parallel sweep bit-identical to the serial one.
//
// The coloring is greedy in ascending element order (first-fit over the
// point-sharing conflict graph), which for hexahedral meshes yields a
// small number of colors (an interior element conflicts with at most 26
// neighbors) and keeps each class large enough to chunk.
type Coloring struct {
	// ColorOf[kind][e] is the color id of element e of region kind.
	ColorOf [3][]int32
	// NumColors[kind] is the number of colors the region uses.
	NumColors [3]int
}

// BuildColoring colors every region of one rank's local mesh.
func BuildColoring(l *Local) *Coloring {
	c := &Coloring{}
	for kind := 0; kind < 3; kind++ {
		reg := l.Regions[kind]
		if reg == nil || reg.NSpec == 0 {
			continue
		}
		c.ColorOf[kind], c.NumColors[kind] = colorRegion(reg)
	}
	return c
}

// cornerNodes lists the element-local offsets of an element's 8 corner
// nodes.
var cornerNodes = func() (cn [8]int) {
	for c := range cn {
		cn[c] = Idx(0, (c&1)*(NGLL-1), (c>>1&1)*(NGLL-1), (c>>2)*(NGLL-1))
	}
	return cn
}()

// colorRegion greedily colors one region's elements. The conflict graph
// is built from the corner nodes only: in a conforming hexahedral mesh
// (shells, doubling templates, the central cube) two elements that share
// any GLL point share a face, an edge or a vertex of both, and with it a
// corner node. The conflict sets are therefore those of the all-points
// graph, and so are the greedy colors.
func colorRegion(reg *Region) ([]int32, int) {
	// CSR corner point -> incident elements (at most 8 in a conforming
	// hex mesh, but the layout is generic).
	start := make([]int32, reg.NGlob+1)
	for e := 0; e < reg.NSpec; e++ {
		for _, q := range cornerNodes {
			start[reg.Ibool[e*NGLL3+q]+1]++
		}
	}
	for i := 0; i < reg.NGlob; i++ {
		start[i+1] += start[i]
	}
	pos := append([]int32(nil), start[:reg.NGlob]...)
	inc := make([]int32, len(cornerNodes)*reg.NSpec)
	for e := 0; e < reg.NSpec; e++ {
		for _, q := range cornerNodes {
			g := reg.Ibool[e*NGLL3+q]
			inc[pos[g]] = int32(e)
			pos[g]++
		}
	}

	colorOf := make([]int32, reg.NSpec)
	for i := range colorOf {
		colorOf[i] = -1
	}
	numColors := 0
	var used []bool // scratch, indexed by color
	for e := 0; e < reg.NSpec; e++ {
		for i := 0; i < numColors; i++ {
			used[i] = false
		}
		for _, q := range cornerNodes {
			g := reg.Ibool[e*NGLL3+q]
			for _, nb := range inc[start[g]:start[g+1]] {
				if cn := colorOf[nb]; cn >= 0 {
					used[cn] = true
				}
			}
		}
		picked := int32(-1)
		for cn := 0; cn < numColors; cn++ {
			if !used[cn] {
				picked = int32(cn)
				break
			}
		}
		if picked < 0 {
			picked = int32(numColors)
			numColors++
			used = append(used, false)
		}
		colorOf[e] = picked
	}
	return colorOf, numColors
}

// Classes partitions an element sub-list into per-color classes. A nil
// sub-list means every element of the region; otherwise elems must be
// ascending (the Outer/Inner lists of the overlap classification are).
// Classes are returned in ascending color order with empty colors
// dropped, and each class preserves the sub-list's ascending element
// order — concatenating the classes visits exactly the sub-list,
// grouped by color.
func (c *Coloring) Classes(kind int, elems []int32) [][]int32 {
	colorOf := c.ColorOf[kind]
	n := c.NumColors[kind]
	if n == 0 {
		return nil
	}
	counts := make([]int, n)
	if elems == nil {
		for _, cn := range colorOf {
			counts[cn]++
		}
	} else {
		for _, e := range elems {
			counts[colorOf[e]]++
		}
	}
	byColor := make([][]int32, n)
	for cn, cnt := range counts {
		if cnt > 0 {
			byColor[cn] = make([]int32, 0, cnt)
		}
	}
	if elems == nil {
		for e := range colorOf {
			cn := colorOf[e]
			byColor[cn] = append(byColor[cn], int32(e))
		}
	} else {
		for _, e := range elems {
			cn := colorOf[e]
			byColor[cn] = append(byColor[cn], e)
		}
	}
	classes := make([][]int32, 0, n)
	for _, class := range byColor {
		if len(class) > 0 {
			classes = append(classes, class)
		}
	}
	return classes
}

// MaxColors returns the largest color count across regions — a
// parallelism diagnostic: each color is one barrier-separated parallel
// sweep, so fewer colors with larger classes parallelize better.
func (c *Coloring) MaxColors() int {
	m := 0
	for kind := 0; kind < 3; kind++ {
		if c.NumColors[kind] > m {
			m = c.NumColors[kind]
		}
	}
	return m
}
