// Package meshio writes and reads the legacy mesher-to-solver database
// of the stable 4.0 code that the paper's section 4.1 retired: MESHFEM3D
// wrote up to 51 files per core for SPECFEM3D to read back, over 3.2
// million files at 62K cores. The merged program hands the mesh over in
// memory instead; MergedHandoff accounts for what stays there.
//
// The product never writes the database. It is a real, lossless binary
// format so that the disk-space measurements behind figure 5 and the
// IOMERGE comparison come from actual bytes.
package meshio

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

// LegacyFilesPerCore is the number of database files the legacy mode
// writes for a rank whose mesh has all three regions: 15 array files and
// one halo file per region plus the header, boundary and surface files —
// the "up to 51 files per core" of section 4.1.
const LegacyFilesPerCore = 3*16 + 3

// Stats accounts for one handoff.
type Stats struct {
	Files int
	Bytes int64
}

// array is one of a region's array files: its name and its slices.
type array struct {
	name string
	vs   []any
}

// regionArrays lists r's 15 array files in their fixed order, every
// array the region holds but the per-element Q factors of the header;
// the writer and the reader both walk it. The material file holds the
// materials r keeps, the solid's Kappa and Mu or the fluid's Rho. The
// points are stored without a length prefix (the file size is their
// count), every other array after its length.
func regionArrays(r *mesh.Region) []array {
	one := func(name string, v any) array { return array{name, []any{v}} }
	material := array{"material", []any{r.Kappa, r.Mu}}
	if r.IsFluid() {
		material.vs = []any{r.Rho}
	}
	return []array{
		one("ibool", r.Ibool), one("pts", r.Pts),
		one("xix", r.Xix), one("xiy", r.Xiy), one("xiz", r.Xiz),
		one("etax", r.Etax), one("etay", r.Etay), one("etaz", r.Etaz),
		one("gamx", r.Gamx), one("gamy", r.Gamy), one("gamz", r.Gamz),
		one("jac", r.Jac), material, one("mass", r.Mass), one("audit", r.Audit),
	}
}

const magic = uint32(0x53504543) // "SPEC"

// le is the byte order of every file, like the Fortran unformatted files
// the original code writes on these machines.
var le = binary.LittleEndian

// WriteRankDatabase writes a rank's mesh and halo plan to dir in the
// legacy multi-file format and returns the file/byte accounting.
func WriteRankDatabase(dir string, local *mesh.Local, plan *mesh.HaloPlan) (Stats, error) {
	var st Stats
	err := os.MkdirAll(dir, 0o755)
	// write encodes and writes one file unless an earlier one failed.
	write := func(name string, emit func(w *writer)) {
		if err != nil {
			return
		}
		var w writer
		emit(&w)
		path := filepath.Join(dir, fmt.Sprintf("proc%06d_%s.bin", local.Rank, name))
		if err = cmp.Or(w.err, os.WriteFile(path, w.Bytes(), 0o666)); err == nil {
			st.Files++
			st.Bytes += int64(w.Len())
		}
	}

	// Header: magic, rank, per-region sizes and Q arrays.
	write("header", func(w *writer) {
		w.put(magic, uint32(local.Rank))
		for kind, r := range local.Regions {
			if r == nil {
				r = mesh.NewRegion(earthmodel.Region(kind), 0)
			}
			w.put(uint32(r.NSpec), uint32(r.NGlob))
			w.slices(r.Qmu, r.Qkappa)
		}
	})

	for kind, r := range local.Regions {
		if r == nil || r.NSpec == 0 {
			continue
		}
		for _, a := range regionArrays(r) {
			write(fmt.Sprintf("reg%d_%s", kind, a.name), func(w *writer) {
				if a.name == "pts" {
					w.put(a.vs...)
				} else {
					w.slices(a.vs...)
				}
			})
		}
		// The region's halo edges, the MPI buffers of the legacy code.
		write(fmt.Sprintf("reg%d_halo", kind), func(w *writer) {
			w.put(uint32(len(plan.Edges[kind])))
			for _, e := range plan.Edges[kind] {
				w.put(uint32(e.Peer))
				w.slices(e.Idx)
			}
		})
	}

	// Boundary file: coupling faces.
	write("boundary", func(w *writer) {
		for _, faces := range [][]mesh.CoupleFace{local.CMB, local.ICB} {
			w.put(uint32(len(faces)))
			for i := range faces {
				cf := &faces[i]
				w.put(uint32(cf.SolidKind))
				w.slices(cf.SolidPt[:], cf.FluidPt[:], cf.Nx[:], cf.Ny[:], cf.Nz[:], cf.Weight[:])
			}
		}
	})

	// Surface file: ocean-load data.
	write("surface", func(w *writer) {
		sl := &local.Surface
		w.put(uint32(len(sl.Pts)))
		w.slices(sl.Pts, sl.Nx, sl.Ny, sl.Nz, sl.AreaW)
		w.put(sl.WaterRho, sl.WaterDepth)
	})
	return st, err
}

// ReadRankDatabase reads back a rank's database written by
// WriteRankDatabase. The returned mesh is bit-identical to the written
// one, its mass and element audit read, not derived again. A short,
// oversized or inconsistent file, or a mesh that fails the regions'
// structural checks, is an error; every read region is finished like a
// freshly meshed one.
func ReadRankDatabase(dir string, rank int) (*mesh.Local, *mesh.HaloPlan, error) {
	read := func(name string, decode func(r *reader)) error {
		return readFile(filepath.Join(dir, fmt.Sprintf("proc%06d_%s.bin", rank, name)), decode)
	}

	local := &mesh.Local{Rank: rank}
	plan := &mesh.HaloPlan{Rank: rank}

	err := read("header", func(r *reader) {
		if got := r.u32(); r.err == nil && got != magic {
			r.fail("bad magic %x", got)
		}
		if got := r.u32(); r.err == nil && int(got) != rank {
			r.fail("header is for rank %d, want %d", got, rank)
		}
		for kind := 0; kind < 3 && r.err == nil; kind++ {
			nspec, nglob := int(r.u32()), int(r.u32())
			// The two per-element Q arrays follow: a count the rest of
			// the file cannot hold is corrupt, not an allocation; so is a
			// point count above the element slots that reference points.
			if r.err == nil && int64(nspec)*8 > r.left() {
				r.fail("region %d: %d elements, but %d bytes left", kind, nspec, r.left())
			}
			if r.err == nil && nglob > nspec*mesh.NGLL3 {
				r.fail("region %d: %d points for %d elements", kind, nglob, nspec)
			}
			if r.err != nil {
				return
			}
			reg := mesh.NewRegion(earthmodel.Region(kind), nspec)
			reg.NGlob = nglob
			if nspec > 0 {
				reg.Mass, reg.Audit = make([]float32, nglob), make([]mesh.ElemAudit, nspec)
			}
			r.slices(reg.Qmu, reg.Qkappa)
			local.Regions[kind] = reg
		}
	})
	if err != nil {
		return nil, nil, err
	}

	for kind, reg := range local.Regions {
		if reg.NSpec == 0 {
			continue
		}
		for _, a := range regionArrays(reg) {
			err := read(fmt.Sprintf("reg%d_%s", kind, a.name), func(r *reader) {
				if a.name != "pts" {
					r.slices(a.vs...)
					return
				}
				if int64(reg.NGlob)*24 != r.left() {
					r.fail("%d points in %d bytes", reg.NGlob, r.left())
					return
				}
				reg.Pts = make([][3]float64, reg.NGlob)
				r.get(reg.Pts)
			})
			if err != nil {
				return nil, nil, err
			}
		}
		err := read(fmt.Sprintf("reg%d_halo", kind), func(r *reader) {
			nEdges := r.count(8)
			for e := 0; e < nEdges && r.err == nil; e++ {
				edge := mesh.HaloEdge{Peer: int(r.u32())}
				edge.Idx = make([]int32, r.count(4))
				r.get(edge.Idx)
				plan.Edges[kind] = append(plan.Edges[kind], edge)
			}
		})
		if err != nil {
			return nil, nil, err
		}
		if err := reg.Finish(); err != nil {
			return nil, nil, fmt.Errorf("meshio: rank %d: %w", rank, err)
		}
	}

	err = read("boundary", func(r *reader) {
		for _, target := range []*[]mesh.CoupleFace{&local.CMB, &local.ICB} {
			n := r.count(4 + 6*4*mesh.NGLL2)
			for i := 0; i < n && r.err == nil; i++ {
				cf := mesh.CoupleFace{SolidKind: earthmodel.Region(r.u32())}
				r.slices(cf.SolidPt[:], cf.FluidPt[:], cf.Nx[:], cf.Ny[:], cf.Nz[:], cf.Weight[:])
				*target = append(*target, cf)
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}

	err = read("surface", func(r *reader) {
		sl := &local.Surface
		n := r.count(5 * 4)
		sl.Pts = make([]int32, n)
		sl.Nx = make([]float32, n)
		sl.Ny = make([]float32, n)
		sl.Nz = make([]float32, n)
		sl.AreaW = make([]float32, n)
		r.slices(sl.Pts, sl.Nx, sl.Ny, sl.Nz, sl.AreaW)
		r.get(&sl.WaterRho)
		r.get(&sl.WaterDepth)
	})
	if err != nil {
		return nil, nil, err
	}
	if err := checkIndices(local, plan); err != nil {
		return nil, nil, fmt.Errorf("meshio: rank %d: %w", rank, err)
	}
	return local, plan, nil
}

// checkIndices verifies that every point index the regions' Ibool, the
// coupling faces, the surface load and the halo plan hold falls inside
// its region.
func checkIndices(l *mesh.Local, p *mesh.HaloPlan) error {
	inRange := func(kind earthmodel.Region, idx []int32, what string) error {
		n := 0
		if kind >= 0 && int(kind) < len(l.Regions) {
			n = l.Regions[kind].NGlob
		}
		for _, g := range idx {
			if g < 0 || int(g) >= n {
				return fmt.Errorf("%s: point %d outside region %v's [0, %d)", what, g, kind, n)
			}
		}
		return nil
	}
	for _, faces := range [][]mesh.CoupleFace{l.CMB, l.ICB} {
		for i := range faces {
			cf := &faces[i]
			if err := cmp.Or(inRange(cf.SolidKind, cf.SolidPt[:], "coupling face"),
				inRange(earthmodel.RegionOuterCore, cf.FluidPt[:], "coupling face")); err != nil {
				return err
			}
		}
	}
	if err := inRange(earthmodel.RegionCrustMantle, l.Surface.Pts, "surface load"); err != nil {
		return err
	}
	for _, r := range l.Regions {
		if err := inRange(r.Kind, r.Ibool, "ibool"); err != nil {
			return err
		}
	}
	for kind, edges := range p.Edges {
		for _, e := range edges {
			if err := inRange(earthmodel.Region(kind), e.Idx, "halo edge"); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteAllRanks writes the whole distributed mesh and returns aggregate
// accounting — the legacy handoff of the stable 4.0 code.
func WriteAllRanks(dir string, locals []*mesh.Local, plans []*mesh.HaloPlan) (Stats, error) {
	var st Stats
	for i, l := range locals {
		s, err := WriteRankDatabase(dir, l, plans[i])
		if err != nil {
			return st, err
		}
		st.Files += s.Files
		st.Bytes += s.Bytes
	}
	return st, nil
}

// ReadAllRanks reads a complete legacy database back.
func ReadAllRanks(dir string, nRanks int) ([]*mesh.Local, []*mesh.HaloPlan, error) {
	locals := make([]*mesh.Local, nRanks)
	plans := make([]*mesh.HaloPlan, nRanks)
	for rank := range nRanks {
		var err error
		if locals[rank], plans[rank], err = ReadRankDatabase(dir, rank); err != nil {
			return nil, nil, err
		}
	}
	return locals, plans, nil
}

// MergedHandoff is the in-memory handoff of the merged application: it
// performs no I/O and reports the bytes that stayed in memory instead of
// crossing the filesystem (what the merge of section 4.1 eliminated).
func MergedHandoff(locals []*mesh.Local) Stats {
	var st Stats
	for _, l := range locals {
		st.Bytes += MeshBytes(l)
	}
	return st // Files stays 0: no intermediate files at all
}

// MeshBytes returns the in-memory footprint of a rank's mesh arrays,
// exactly what its regions hold, used by the merged-mode accounting, the
// daemon's session budget and the section 4 memory model (37 TB at the
// 2-second resolution).
func MeshBytes(l *mesh.Local) int64 {
	var b int64
	for _, r := range l.Regions {
		if r == nil {
			continue
		}
		for _, a := range regionArrays(r) {
			for _, v := range a.vs {
				b += int64(binary.Size(v))
			}
		}
		b += int64(binary.Size(r.Qmu) + binary.Size(r.Qkappa))
	}
	b += int64(len(l.CMB)+len(l.ICB)) * int64(4*(1+2*mesh.NGLL2+4*mesh.NGLL2))
	b += int64(len(l.Surface.Pts)) * 20
	return b
}

// writer encodes one database file in memory. The first failed write
// records err and every later write is skipped.
type writer struct {
	bytes.Buffer
	err error
}

// put writes each value whole, without a length prefix.
func (w *writer) put(vs ...any) {
	for _, v := range vs {
		if w.err == nil {
			w.err = binary.Write(&w.Buffer, le, v)
		}
	}
}

// slices writes each slice after its uint32 length in 4-byte words.
func (w *writer) slices(as ...any) {
	for _, a := range as {
		w.put(uint32(binary.Size(a)/4), a)
	}
}

// reader decodes one database file held in memory. The first short or
// inconsistent read records err and every later read leaves its value
// alone, so a decoder checks err once, at the end of the file.
type reader struct {
	*bytes.Reader
	err error
}

// readFile reads path, runs decode over it and returns the first error
// decode met; a file with bytes left over is inconsistent too.
func readFile(path string, decode func(r *reader)) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	r := &reader{Reader: bytes.NewReader(b)}
	decode(r)
	if r.err == nil && r.left() != 0 {
		r.fail("%d trailing bytes", r.left())
	}
	if r.err != nil {
		return fmt.Errorf("meshio: %s: %w", filepath.Base(path), r.err)
	}
	return nil
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// left is the number of bytes not yet consumed.
func (r *reader) left() int64 { return int64(r.Len()) }

// get reads v (a pointer to a fixed-size value, or a slice) whole.
func (r *reader) get(v any) {
	if n := int64(binary.Size(v)); r.err == nil && n > r.left() {
		r.fail("short read: %d bytes wanted, %d left", n, r.left())
	}
	if r.err == nil {
		r.err = binary.Read(r, le, v)
	}
}

func (r *reader) u32() uint32 {
	var v uint32
	r.get(&v)
	return v
}

// count reads a length prefix and checks that the rest of the file can
// hold that many items of at least itemBytes bytes each.
func (r *reader) count(itemBytes int) int {
	n := r.u32()
	if r.err == nil && int64(n)*int64(itemBytes) > r.left() {
		r.fail("%d items of %d bytes, but %d bytes left", n, itemBytes, r.left())
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// slices reads into each slice after a length prefix that must equal
// its length in 4-byte words.
func (r *reader) slices(as ...any) {
	for _, a := range as {
		if n, want := r.u32(), binary.Size(a)/4; r.err == nil && int(n) != want {
			r.fail("array length %d, want %d", n, want)
		}
		r.get(a)
	}
}
