// Package renumber implements the mesh-ordering optimizations of the
// paper's section 4.2: reverse Cuthill-McKee sorting of the spectral
// elements to improve spatial and temporal cache locality of the global
// arrays, the multilevel variant that groups 50-100 elements into
// L2-cache-sized blocks, and first-touch renumbering of the global
// points (the earlier optimization of reference [7] that the paper
// credits with already having removed most L2 misses).
package renumber

import (
	"fmt"
	"sort"

	"specglobe/internal/mesh"
)

// ElementAdjacency builds the element-connectivity graph of a region:
// two elements are adjacent when they share at least one global point
// (face, edge or corner).
func ElementAdjacency(r *mesh.Region) [][]int32 {
	// Invert ibool: point -> elements touching it.
	byPoint := make([][]int32, r.NGlob)
	for e := 0; e < r.NSpec; e++ {
		seen := map[int32]bool{}
		for p := 0; p < mesh.NGLL3; p++ {
			g := r.Ibool[e*mesh.NGLL3+p]
			if !seen[g] {
				seen[g] = true
				byPoint[g] = append(byPoint[g], int32(e))
			}
		}
	}
	adjSet := make([]map[int32]bool, r.NSpec)
	for i := range adjSet {
		adjSet[i] = map[int32]bool{}
	}
	for _, elems := range byPoint {
		for i := 0; i < len(elems); i++ {
			for j := i + 1; j < len(elems); j++ {
				adjSet[elems[i]][elems[j]] = true
				adjSet[elems[j]][elems[i]] = true
			}
		}
	}
	adj := make([][]int32, r.NSpec)
	for e := range adj {
		for n := range adjSet[e] {
			adj[e] = append(adj[e], n)
		}
		sort.Slice(adj[e], func(a, b int) bool { return adj[e][a] < adj[e][b] })
	}
	return adj
}

// CuthillMcKee returns the classical reverse Cuthill-McKee ordering of
// the graph: a breadth-first traversal from a low-degree start vertex,
// visiting neighbors in increasing-degree order, then reversed. The
// returned perm maps new position -> old index.
func CuthillMcKee(adj [][]int32) []int32 {
	n := len(adj)
	perm := make([]int32, 0, n)
	visited := make([]bool, n)

	deg := func(v int32) int { return len(adj[v]) }

	for len(perm) < n {
		// Start each component from its minimum-degree vertex.
		start := int32(-1)
		for v := 0; v < n; v++ {
			if !visited[v] && (start < 0 || deg(int32(v)) < deg(start)) {
				start = int32(v)
			}
		}
		queue := []int32{start}
		visited[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			perm = append(perm, v)
			var next []int32
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					next = append(next, w)
				}
			}
			sort.Slice(next, func(a, b int) bool {
				da, db := deg(next[a]), deg(next[b])
				if da != db {
					return da < db
				}
				return next[a] < next[b]
			})
			queue = append(queue, next...)
		}
	}
	// Reverse (the "reverse" in RCM).
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// MultilevelCuthillMcKee is the paper's improved variant: the RCM order
// is cut into blocks of blockSize elements (50-100 elements fit an L2
// cache), a block-level graph is built, RCM is applied to the blocks,
// and the final order concatenates the reordered blocks.
func MultilevelCuthillMcKee(adj [][]int32, blockSize int) []int32 {
	if blockSize < 1 {
		blockSize = 64
	}
	base := CuthillMcKee(adj)
	n := len(base)
	if n == 0 {
		return base
	}
	nBlocks := (n + blockSize - 1) / blockSize
	blockOf := make([]int32, n) // old element -> block id
	for pos, e := range base {
		blockOf[e] = int32(pos / blockSize)
	}
	// Block-level adjacency.
	bAdjSet := make([]map[int32]bool, nBlocks)
	for i := range bAdjSet {
		bAdjSet[i] = map[int32]bool{}
	}
	for v := range adj {
		for _, w := range adj[v] {
			bv, bw := blockOf[v], blockOf[w]
			if bv != bw {
				bAdjSet[bv][bw] = true
				bAdjSet[bw][bv] = true
			}
		}
	}
	bAdj := make([][]int32, nBlocks)
	for b := range bAdj {
		for w := range bAdjSet[b] {
			bAdj[b] = append(bAdj[b], w)
		}
		sort.Slice(bAdj[b], func(x, y int) bool { return bAdj[b][x] < bAdj[b][y] })
	}
	bPerm := CuthillMcKee(bAdj)
	// Elements of each block in base order.
	blockElems := make([][]int32, nBlocks)
	for _, e := range base {
		b := blockOf[e]
		blockElems[b] = append(blockElems[b], e)
	}
	out := make([]int32, 0, n)
	for _, b := range bPerm {
		out = append(out, blockElems[b]...)
	}
	return out
}

// Bandwidth returns the adjacency bandwidth of an element ordering: the
// maximum distance in the new order between two adjacent elements.
// Lower bandwidth means adjacent elements are processed closer in time.
func Bandwidth(adj [][]int32, perm []int32) int {
	pos := make([]int32, len(perm))
	for p, e := range perm {
		pos[e] = int32(p)
	}
	bw := 0
	for v := range adj {
		for _, w := range adj[v] {
			d := int(pos[v]) - int(pos[w])
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// MeanStride measures the locality proxy the sorting optimizes: the
// average absolute difference between the global point indices touched
// by consecutive elements of the ordering. Smaller strides mean shared
// points are more likely still in cache.
func MeanStride(r *mesh.Region, perm []int32) float64 {
	if len(perm) < 2 {
		return 0
	}
	centroid := func(e int32) float64 {
		s := 0.0
		for p := 0; p < mesh.NGLL3; p++ {
			s += float64(r.Ibool[int(e)*mesh.NGLL3+p])
		}
		return s / mesh.NGLL3
	}
	total := 0.0
	for i := 1; i < len(perm); i++ {
		d := centroid(perm[i]) - centroid(perm[i-1])
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total / float64(len(perm)-1)
}

// Identity returns the identity permutation of length n.
func Identity(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// IsPermutation verifies that perm is a bijection on [0, n).
func IsPermutation(perm []int32, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range perm {
		if v < 0 || int(v) >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// PermuteElements reorders the elements of a region in place so that new
// element i is old element perm[i]. Mathematically the assembled result
// is unchanged ("one can loop on the elements in any order and get the
// same final result", section 4.2); only cache behavior and float32
// roundoff in the last digits differ.
func PermuteElements(r *mesh.Region, perm []int32) error {
	if !IsPermutation(perm, r.NSpec) {
		return fmt.Errorf("renumber: not a permutation of %d elements", r.NSpec)
	}
	permF32Blocks := func(a []float32, block int) {
		out := make([]float32, len(a))
		for newE, oldE := range perm {
			copy(out[newE*block:(newE+1)*block], a[int(oldE)*block:(int(oldE)+1)*block])
		}
		copy(a, out)
	}
	out := make([]int32, len(r.Ibool))
	for newE, oldE := range perm {
		copy(out[newE*mesh.NGLL3:(newE+1)*mesh.NGLL3],
			r.Ibool[int(oldE)*mesh.NGLL3:(int(oldE)+1)*mesh.NGLL3])
	}
	copy(r.Ibool, out)
	for _, a := range [][]float32{
		r.Xix, r.Xiy, r.Xiz, r.Etax, r.Etay, r.Etaz,
		r.Gamx, r.Gamy, r.Gamz, r.Jac, r.JacW, r.Rho, r.Kappa, r.Mu,
	} {
		permF32Blocks(a, mesh.NGLL3)
	}
	permF32Blocks(r.Qmu, 1)
	permF32Blocks(r.Qkappa, 1)
	if len(r.Audit) == r.NSpec {
		audit := make([]mesh.ElemAudit, r.NSpec)
		for newE, oldE := range perm {
			audit[newE] = r.Audit[oldE]
		}
		r.Audit = audit
	}
	return nil
}

// FirstTouchPointOrder returns a point permutation (new index for each
// old point) that renumbers global points in the order the element loop
// first touches them — the point renumbering of reference [7] that
// removes most cache misses. Meshes built by the in-repo meshers already
// have this property; the permutation is the identity for them.
func FirstTouchPointOrder(r *mesh.Region) []int32 {
	newIdx := make([]int32, r.NGlob)
	for i := range newIdx {
		newIdx[i] = -1
	}
	var next int32
	for _, g := range r.Ibool {
		if newIdx[g] < 0 {
			newIdx[g] = next
			next++
		}
	}
	return newIdx
}

// RenumberPoints relabels the region's global points: new index of old
// point i is newIdx[i]. Used both to restore first-touch order and (in
// ablation benchmarks) to scramble point locality.
func RenumberPoints(r *mesh.Region, newIdx []int32) error {
	if !IsPermutation(newIdx, r.NGlob) {
		return fmt.Errorf("renumber: not a permutation of %d points", r.NGlob)
	}
	for i, g := range r.Ibool {
		r.Ibool[i] = newIdx[g]
	}
	pts := make([][3]float64, r.NGlob)
	for old, p := range r.Pts {
		pts[newIdx[old]] = p
	}
	r.Pts = pts
	if r.Mass != nil {
		m := make([]float32, r.NGlob)
		for old, v := range r.Mass {
			m[newIdx[old]] = v
		}
		r.Mass = m
	}
	return nil
}
