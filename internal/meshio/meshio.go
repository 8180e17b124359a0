// Package meshio implements the two mesher-to-solver handoff modes the
// paper contrasts in section 4.1:
//
//   - the legacy mode of the stable 4.0 code, where MESHFEM3D writes a
//     per-core database of up to 51 files that SPECFEM3D then reads
//     back (over 3.2 million files at 62K cores), and
//   - the merged mode, where mesher and solver are one program and the
//     mesh is handed over in memory with zero I/O.
//
// The legacy serialization is a real, lossless binary format so that
// the disk-space measurements behind figure 5 come from actual bytes.
package meshio

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

// LegacyFilesPerCore is the number of database files the legacy mode
// writes for a rank whose mesh has all three regions: 16 array files per
// region plus the header, boundary and surface files — the "up to 51
// files per core" of section 4.1.
const LegacyFilesPerCore = 3*16 + 3

// Stats accounts for one handoff.
type Stats struct {
	Files int
	Bytes int64
}

// regionArrayNames lists the 16 per-region array files in a fixed order.
var regionArrayNames = []string{
	"ibool", "pts",
	"xix", "xiy", "xiz", "etax", "etay", "etaz", "gamx", "gamy", "gamz",
	"jac", "jacw", "rho", "kappa", "mu",
}

const magic = uint32(0x53504543) // "SPEC"

// WriteRankDatabase writes a rank's mesh and halo plan to dir in the
// legacy multi-file format and returns the file/byte accounting.
func WriteRankDatabase(dir string, local *mesh.Local, plan *mesh.HaloPlan) (Stats, error) {
	var st Stats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	write := func(name string, emit func(w *bufio.Writer) error) error {
		path := filepath.Join(dir, fmt.Sprintf("proc%06d_%s.bin", local.Rank, name))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		if err := emit(w); err != nil {
			f.Close()
			return err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		st.Files++
		st.Bytes += info.Size()
		return f.Close()
	}

	// Header: magic, rank, per-region sizes, Q arrays, halo plan.
	err := write("header", func(w *bufio.Writer) error {
		putU32(w, magic)
		putU32(w, uint32(local.Rank))
		for kind := 0; kind < 3; kind++ {
			r := local.Regions[kind]
			if r == nil {
				r = mesh.NewRegion(earthmodel.Region(kind), 0)
			}
			putU32(w, uint32(r.NSpec))
			putU32(w, uint32(r.NGlob))
			putF32s(w, r.Qmu)
			putF32s(w, r.Qkappa)
		}
		for kind := 0; kind < 3; kind++ {
			edges := plan.Edges[kind]
			putU32(w, uint32(len(edges)))
			for _, e := range edges {
				putU32(w, uint32(e.Peer))
				putI32s(w, e.Idx)
			}
		}
		return nil
	})
	if err != nil {
		return st, err
	}

	for kind := 0; kind < 3; kind++ {
		r := local.Regions[kind]
		if r == nil || r.NSpec == 0 {
			continue
		}
		arrays := map[string][]float32{
			"xix": r.Xix, "xiy": r.Xiy, "xiz": r.Xiz,
			"etax": r.Etax, "etay": r.Etay, "etaz": r.Etaz,
			"gamx": r.Gamx, "gamy": r.Gamy, "gamz": r.Gamz,
			"jac": r.Jac, "jacw": r.JacW,
			"rho": r.Rho, "kappa": r.Kappa, "mu": r.Mu,
		}
		for _, name := range regionArrayNames {
			fileName := fmt.Sprintf("reg%d_%s", kind, name)
			switch name {
			case "ibool":
				if err := write(fileName, func(w *bufio.Writer) error {
					putI32s(w, r.Ibool)
					return nil
				}); err != nil {
					return st, err
				}
			case "pts":
				if err := write(fileName, func(w *bufio.Writer) error {
					for _, p := range r.Pts {
						putU64(w, math.Float64bits(p[0]))
						putU64(w, math.Float64bits(p[1]))
						putU64(w, math.Float64bits(p[2]))
					}
					return nil
				}); err != nil {
					return st, err
				}
			default:
				a := arrays[name]
				if err := write(fileName, func(w *bufio.Writer) error {
					putF32s(w, a)
					return nil
				}); err != nil {
					return st, err
				}
			}
		}
	}

	// Boundary file: coupling faces.
	err = write("boundary", func(w *bufio.Writer) error {
		for _, faces := range [][]mesh.CoupleFace{local.CMB, local.ICB} {
			putU32(w, uint32(len(faces)))
			for i := range faces {
				cf := &faces[i]
				putU32(w, uint32(cf.SolidKind))
				putI32s(w, cf.SolidPt[:])
				putI32s(w, cf.FluidPt[:])
				putF32s(w, cf.Nx[:])
				putF32s(w, cf.Ny[:])
				putF32s(w, cf.Nz[:])
				putF32s(w, cf.Weight[:])
			}
		}
		return nil
	})
	if err != nil {
		return st, err
	}

	// Surface file: ocean-load data.
	err = write("surface", func(w *bufio.Writer) error {
		sl := &local.Surface
		putU32(w, uint32(len(sl.Pts)))
		putI32s(w, sl.Pts)
		putF32s(w, sl.Nx)
		putF32s(w, sl.Ny)
		putF32s(w, sl.Nz)
		putF32s(w, sl.AreaW)
		putU64(w, math.Float64bits(sl.WaterRho))
		putU64(w, math.Float64bits(sl.WaterDepth))
		return nil
	})
	return st, err
}

// ReadRankDatabase reads back a rank's database written by
// WriteRankDatabase. The returned mesh is bit-identical to the written
// one. A short, oversized or inconsistent file, or a mesh that fails the
// regions' structural checks, is an error; every read region is
// finished (validated, mass assembled, elements audited) like a freshly
// meshed one.
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
			if r.err == nil && int64(nspec)*8 > r.left {
				r.fail("region %d: %d elements, but %d bytes left", kind, nspec, r.left)
			}
			if r.err == nil && nglob > nspec*mesh.NGLL3 {
				r.fail("region %d: %d points for %d elements", kind, nglob, nspec)
			}
			if r.err != nil {
				return
			}
			reg := mesh.NewRegion(earthmodel.Region(kind), nspec)
			reg.NGlob = nglob
			r.f32s(reg.Qmu)
			r.f32s(reg.Qkappa)
			local.Regions[kind] = reg
		}
		for kind := 0; kind < 3; kind++ {
			nEdges := r.count(8)
			for e := 0; e < nEdges && r.err == nil; e++ {
				edge := mesh.HaloEdge{Peer: int(r.u32())}
				edge.Idx = r.i32sAlloc()
				plan.Edges[kind] = append(plan.Edges[kind], edge)
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}

	for kind := 0; kind < 3; kind++ {
		reg := local.Regions[kind]
		if reg.NSpec == 0 {
			continue
		}
		arrays := map[string][]float32{
			"xix": reg.Xix, "xiy": reg.Xiy, "xiz": reg.Xiz,
			"etax": reg.Etax, "etay": reg.Etay, "etaz": reg.Etaz,
			"gamx": reg.Gamx, "gamy": reg.Gamy, "gamz": reg.Gamz,
			"jac": reg.Jac, "jacw": reg.JacW,
			"rho": reg.Rho, "kappa": reg.Kappa, "mu": reg.Mu,
		}
		for _, name := range regionArrayNames {
			err := read(fmt.Sprintf("reg%d_%s", kind, name), func(r *reader) {
				switch name {
				case "ibool":
					r.i32s(reg.Ibool)
				case "pts":
					if int64(reg.NGlob)*24 != r.left {
						r.fail("%d points in %d bytes", reg.NGlob, r.left)
						return
					}
					reg.Pts = make([][3]float64, reg.NGlob)
					for i := range reg.Pts {
						reg.Pts[i][0] = math.Float64frombits(r.u64())
						reg.Pts[i][1] = math.Float64frombits(r.u64())
						reg.Pts[i][2] = math.Float64frombits(r.u64())
					}
				default:
					r.f32s(arrays[name])
				}
			})
			if err != nil {
				return nil, nil, err
			}
		}
		if err := reg.Finish(); err != nil {
			return nil, nil, fmt.Errorf("meshio: rank %d: %w", rank, err)
		}
	}

	err = read("boundary", func(r *reader) {
		for _, target := range []*[]mesh.CoupleFace{&local.CMB, &local.ICB} {
			n := r.count(4 + 6*4*mesh.NGLL2)
			for i := 0; i < n && r.err == nil; i++ {
				var cf mesh.CoupleFace
				cf.SolidKind = earthmodel.Region(r.u32())
				r.i32s(cf.SolidPt[:])
				r.i32s(cf.FluidPt[:])
				r.f32s(cf.Nx[:])
				r.f32s(cf.Ny[:])
				r.f32s(cf.Nz[:])
				r.f32s(cf.Weight[:])
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
		r.i32s(sl.Pts)
		r.f32s(sl.Nx)
		r.f32s(sl.Ny)
		r.f32s(sl.Nz)
		r.f32s(sl.AreaW)
		sl.WaterRho = math.Float64frombits(r.u64())
		sl.WaterDepth = math.Float64frombits(r.u64())
	})
	if err != nil {
		return nil, nil, err
	}
	if err := checkIndices(local, plan); err != nil {
		return nil, nil, fmt.Errorf("meshio: rank %d: %w", rank, err)
	}
	return local, plan, nil
}

// checkIndices verifies that every point index the coupling faces, the
// surface load and the halo plan hold falls inside its region.
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
	for rank := 0; rank < nRanks; rank++ {
		l, p, err := ReadRankDatabase(dir, rank)
		if err != nil {
			return nil, nil, err
		}
		locals[rank] = l
		plans[rank] = p
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
// used by the merged-mode accounting and the section 4 memory model
// (37 TB at the 2-second resolution).
func MeshBytes(l *mesh.Local) int64 {
	var b int64
	for _, r := range l.Regions {
		if r == nil {
			continue
		}
		b += int64(4 * len(r.Ibool))
		b += int64(24 * len(r.Pts))
		for _, a := range [][]float32{
			r.Xix, r.Xiy, r.Xiz, r.Etax, r.Etay, r.Etaz,
			r.Gamx, r.Gamy, r.Gamz, r.Jac, r.JacW,
			r.Rho, r.Kappa, r.Mu, r.Qmu, r.Qkappa, r.Mass,
		} {
			b += int64(4 * len(a))
		}
	}
	b += int64(len(l.CMB)+len(l.ICB)) * int64(4*(1+2*mesh.NGLL2+4*mesh.NGLL2))
	b += int64(len(l.Surface.Pts)) * 20
	return b
}

// binary helpers (little endian, like the Fortran unformatted files the
// original code writes on these machines)

func putU32(w *bufio.Writer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func putU64(w *bufio.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

func putF32s(w *bufio.Writer, a []float32) {
	putU32(w, uint32(len(a)))
	for _, v := range a {
		putU32(w, math.Float32bits(v))
	}
}

func putI32s(w *bufio.Writer, a []int32) {
	putU32(w, uint32(len(a)))
	for _, v := range a {
		putU32(w, uint32(v))
	}
}

// reader decodes one database file. The first short or inconsistent
// read records err and every later read returns zeros, so a decoder
// checks err once, at the end of the file.
type reader struct {
	br   *bufio.Reader
	left int64 // bytes not yet consumed
	err  error
}

// readFile opens path, runs decode over it and returns the first error
// decode met; a file with bytes left over is inconsistent too.
func readFile(path string, decode func(r *reader)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	r := &reader{br: bufio.NewReader(f), left: info.Size()}
	decode(r)
	if r.err == nil && r.left != 0 {
		r.fail("%d trailing bytes", r.left)
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

func (r *reader) read(b []byte) bool {
	if r.err != nil {
		return false
	}
	if int64(len(b)) > r.left {
		r.fail("short read: %d bytes wanted, %d left", len(b), r.left)
		return false
	}
	if _, err := io.ReadFull(r.br, b); err != nil {
		r.fail("short read: %v", err)
		return false
	}
	r.left -= int64(len(b))
	return true
}

func (r *reader) u32() uint32 {
	var b [4]byte
	if !r.read(b[:]) {
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) u64() uint64 {
	var b [8]byte
	if !r.read(b[:]) {
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

// count reads a length prefix and checks that the rest of the file can
// hold that many items of at least itemBytes bytes each.
func (r *reader) count(itemBytes int) int {
	n := int64(r.u32())
	if r.err == nil && n*int64(itemBytes) > r.left {
		r.fail("%d items of %d bytes, but %d bytes left", n, itemBytes, r.left)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// length reads a length prefix that must equal want.
func (r *reader) length(want int) bool {
	if n := r.u32(); r.err == nil && int(n) != want {
		r.fail("array length %d, want %d", n, want)
	}
	return r.err == nil
}

func (r *reader) f32s(a []float32) {
	if r.length(len(a)) {
		for i := range a {
			a[i] = math.Float32frombits(r.u32())
		}
	}
}

func (r *reader) i32s(a []int32) {
	if r.length(len(a)) {
		for i := range a {
			a[i] = int32(r.u32())
		}
	}
}

func (r *reader) i32sAlloc() []int32 {
	a := make([]int32, r.count(4))
	for i := range a {
		a[i] = int32(r.u32())
	}
	return a
}
