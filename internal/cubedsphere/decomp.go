package cubedsphere

import (
	"fmt"
	"math"
)

// Decomp describes the parallel decomposition of the cubed sphere: each
// of the 6 chunks is split into NProcXi x NProcXi mesh slices, one per
// MPI rank, exactly as controlled by the NPROC_XI input parameter of
// SPECFEM3D_GLOBE. The total rank count is 6 * NProcXi^2.
type Decomp struct {
	NProcXi int // slices per chunk side
	NexXi   int // elements per chunk side (NEX_XI); must divide by NProcXi
}

// NewDecomp validates and builds a decomposition.
func NewDecomp(nexXi, nprocXi int) (Decomp, error) {
	if nprocXi < 1 {
		return Decomp{}, fmt.Errorf("cubedsphere: NPROC_XI must be >= 1, got %d", nprocXi)
	}
	if nexXi < 2 {
		return Decomp{}, fmt.Errorf("cubedsphere: NEX_XI must be >= 2, got %d", nexXi)
	}
	if nexXi%nprocXi != 0 {
		return Decomp{}, fmt.Errorf("cubedsphere: NEX_XI=%d not divisible by NPROC_XI=%d", nexXi, nprocXi)
	}
	if nexXi%2 != 0 {
		return Decomp{}, fmt.Errorf("cubedsphere: NEX_XI must be even for the central cube, got %d", nexXi)
	}
	return Decomp{NProcXi: nprocXi, NexXi: nexXi}, nil
}

// NumRanks returns the total number of ranks: 6 * NPROC_XI^2.
func (d Decomp) NumRanks() int { return NumFaces * d.NProcXi * d.NProcXi }

// NexPerSliceAt returns the number of elements per slice side at a
// depth whose chunk-side element count is nex (mesh doubling halves nex
// with depth; nex must stay divisible by NProcXi, which the mesher
// validates).
func (d Decomp) NexPerSliceAt(nex int) int { return nex / d.NProcXi }

// ElemRangeAt returns the [lo, hi) element index range along one chunk
// axis covered by processor coordinate p at a depth with nex elements
// per chunk side.
func (d Decomp) ElemRangeAt(nex, p int) (lo, hi int) {
	per := d.NexPerSliceAt(nex)
	return p * per, (p + 1) * per
}

// SliceOfElemAt returns the processor coordinate owning element index e
// along one chunk axis at a depth with nex elements per chunk side.
func (d Decomp) SliceOfElemAt(nex, e int) int { return e / d.NexPerSliceAt(nex) }

// Slice identifies one mesh slice: a chunk and its (xi, eta) processor
// coordinates within the chunk.
type Slice struct {
	Chunk     Face
	PXi, PEta int
}

// RankOf returns the rank owning a slice.
func (d Decomp) RankOf(s Slice) int {
	return int(s.Chunk)*d.NProcXi*d.NProcXi + s.PEta*d.NProcXi + s.PXi
}

// SliceOf returns the slice owned by a rank.
func (d Decomp) SliceOf(rank int) Slice {
	pp := d.NProcXi * d.NProcXi
	return Slice{
		Chunk: Face(rank / pp),
		PXi:   rank % d.NProcXi,
		PEta:  (rank % pp) / d.NProcXi,
	}
}

// CentralCubeOwnerAt maps a central-cube element (cube grid cell with
// indices ci, cj, ck in [0, nex)) to the rank that owns it, for a cube
// meshed with nex cells per side (the lateral resolution of the
// innermost shell layer, coarser than NexXi when doubling layers are
// active). Cube cells are assigned to the chunk whose face their center
// is closest to (dominant-axis sectoring) and, within the chunk, to the
// slice whose (xi, eta) range contains the cell — so the cube's surface
// cells land on the same ranks as the shell elements they touch, which
// keeps the ICB coupling local, and interior cells spread over all six
// chunks (the paper's "cutting the cube" load-balance treatment
// generalized).
func (d Decomp) CentralCubeOwnerAt(nex, ci, cj, ck int) int {
	g := TanGrid(nex)
	c := Vec3{
		0.5 * (g[ci] + g[ci+1]),
		0.5 * (g[cj] + g[cj+1]),
		0.5 * (g[ck] + g[ck+1]),
	}
	f := cubeSectorFace(c, ci+cj+ck)
	// Project the cell center onto the face's (u, v) axes to find the
	// (xi, eta) element indices; the axis order follows Triad.
	var ia, ib int
	switch f {
	case FacePX:
		ia, ib = cj, ck
	case FaceNX:
		ia, ib = ck, cj
	case FacePY:
		ia, ib = ck, ci
	case FaceNY:
		ia, ib = ci, ck
	case FacePZ:
		ia, ib = ci, cj
	default: // FaceNZ
		ia, ib = cj, ci
	}
	return d.RankOf(Slice{Chunk: f, PXi: d.SliceOfElemAt(nex, ia), PEta: d.SliceOfElemAt(nex, ib)})
}

// cubeSectorFace classifies a cube cell center into a dominant-axis
// sector. Cells on the diagonal planes (where two or three axis
// magnitudes tie) are distributed round-robin by the parity key so the
// six chunks receive balanced shares — the symmetric tan grid otherwise
// sends every tie to the X faces.
func cubeSectorFace(c Vec3, key int) Face {
	const eps = 1e-12
	ax, ay, az := math.Abs(c[0]), math.Abs(c[1]), math.Abs(c[2])
	m := ax
	if ay > m {
		m = ay
	}
	if az > m {
		m = az
	}
	var tied []Face
	if ax >= m-eps {
		if c[0] >= 0 {
			tied = append(tied, FacePX)
		} else {
			tied = append(tied, FaceNX)
		}
	}
	if ay >= m-eps {
		if c[1] >= 0 {
			tied = append(tied, FacePY)
		} else {
			tied = append(tied, FaceNY)
		}
	}
	if az >= m-eps {
		if c[2] >= 0 {
			tied = append(tied, FacePZ)
		} else {
			tied = append(tied, FaceNZ)
		}
	}
	if key < 0 {
		key = -key
	}
	return tied[key%len(tied)]
}
