package meshio

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"specglobe/internal/boxmesh"
	"specglobe/internal/earthmodel"
	"specglobe/internal/meshfem"
)

func buildGlobe(t testing.TB, nex int) *meshfem.Globe {
	t.Helper()
	model := earthmodel.NewHomogeneous(6371e3, earthmodel.Material{
		Rho: 5000, Vp: 10000, Vs: 5500, Qmu: 300, Qkappa: 57823,
	})
	model.ICBRadius = 1221.5e3
	model.CMBRadius = 3480e3
	g, err := meshfem.Build(meshfem.Config{NexXi: nex, NProcXi: 1, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Every rank's mesh and halo plan read back equals the built one, field
// for field: on the homogeneous globe and on the doubled PREM globe,
// whose ocean surface, CMB and ICB faces and every array Region.Finish
// recomputes (mass, element audit, stable-dt extremes) the comparison
// covers.
func TestRoundTripBitExact(t *testing.T) {
	prem, err := meshfem.Build(meshfem.Config{NexXi: 8, NProcXi: 1, Model: earthmodel.NewPREM(),
		Doublings: []float64{5200e3, 3000e3}})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*meshfem.Globe{"homogeneous/nex4": buildGlobe(t, 4), "prem/nex8/doubled": prem} {
		t.Run(name, func(t *testing.T) {
			var ocean, cmb, icb int
			for _, l := range g.Locals {
				ocean, cmb, icb = ocean+len(l.Surface.Pts), cmb+len(l.CMB), icb+len(l.ICB)
			}
			if ocean == 0 || cmb == 0 || icb == 0 {
				t.Fatalf("mesh lacks what the round trip must cover: %d ocean points, %d CMB, %d ICB faces", ocean, cmb, icb)
			}
			dir := t.TempDir()
			if _, err := WriteAllRanks(dir, g.Locals, g.Plans); err != nil {
				t.Fatal(err)
			}
			locals, plans, err := ReadAllRanks(dir, len(g.Locals))
			if err != nil {
				t.Fatal(err)
			}
			for rank := range g.Locals {
				if !reflect.DeepEqual(locals[rank], g.Locals[rank]) {
					t.Errorf("rank %d: mesh read back differs from the built one", rank)
				}
				if !reflect.DeepEqual(plans[rank], g.Plans[rank]) {
					t.Errorf("rank %d: halo plan read back differs from the built one", rank)
				}
			}
		})
	}
}

// A full three-region rank must produce exactly the "up to 51 files per
// core" of section 4.1.
func TestLegacyFileCount(t *testing.T) {
	g := buildGlobe(t, 4)
	dir := t.TempDir()
	st, err := WriteRankDatabase(dir, g.Locals[0], g.Plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != LegacyFilesPerCore {
		t.Errorf("wrote %d files, want %d", st.Files, LegacyFilesPerCore)
	}
	if LegacyFilesPerCore != 51 {
		t.Errorf("LegacyFilesPerCore = %d, paper says 51", LegacyFilesPerCore)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != st.Files {
		t.Errorf("%d files on disk, accounting says %d", len(entries), st.Files)
	}
	if st.Bytes <= 0 {
		t.Error("no bytes accounted")
	}
	// Accounting must match the filesystem.
	var onDisk int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
	}
	if onDisk != st.Bytes {
		t.Errorf("on-disk bytes %d != accounted %d", onDisk, st.Bytes)
	}
}

func TestWriteAllAndReadAll(t *testing.T) {
	g := buildGlobe(t, 4)
	dir := t.TempDir()
	st, err := WriteAllRanks(dir, g.Locals, g.Plans)
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 6*LegacyFilesPerCore {
		t.Errorf("total files %d, want %d", st.Files, 6*LegacyFilesPerCore)
	}
	locals, plans, err := ReadAllRanks(dir, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(locals) != 6 || len(plans) != 6 {
		t.Fatal("wrong rank count")
	}
	for rank, l := range locals {
		if l.Rank != rank {
			t.Errorf("rank %d mislabeled", rank)
		}
		if l.TotalElements() != g.Locals[rank].TotalElements() {
			t.Errorf("rank %d element count changed", rank)
		}
	}
}

// Disk usage must grow with resolution (the raw observation behind
// figure 5).
func TestBytesGrowWithResolution(t *testing.T) {
	dir4 := t.TempDir()
	dir8 := t.TempDir()
	g4 := buildGlobe(t, 4)
	g8 := buildGlobe(t, 8)
	st4, err := WriteAllRanks(dir4, g4.Locals, g4.Plans)
	if err != nil {
		t.Fatal(err)
	}
	st8, err := WriteAllRanks(dir8, g8.Locals, g8.Plans)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(st8.Bytes) / float64(st4.Bytes)
	// Doubling NEX should multiply data volume by roughly 2^3 = 8
	// (points scale with NEX^3); accept a broad band because radial
	// layer counts do not scale exactly.
	if ratio < 4 || ratio > 16 {
		t.Errorf("bytes ratio NEX8/NEX4 = %.2f, expected ~8", ratio)
	}
}

// The merged handoff must move the same order of data with zero files.
func TestMergedHandoff(t *testing.T) {
	g := buildGlobe(t, 4)
	st := MergedHandoff(g.Locals)
	if st.Files != 0 {
		t.Errorf("merged mode wrote %d files", st.Files)
	}
	if st.Bytes <= 0 {
		t.Error("merged mode accounted no bytes")
	}
	dir := t.TempDir()
	legacy, err := WriteAllRanks(dir, g.Locals, g.Plans)
	if err != nil {
		t.Fatal(err)
	}
	// In-memory and on-disk sizes are the same order of magnitude.
	r := float64(st.Bytes) / float64(legacy.Bytes)
	if r < 0.5 || r > 2 {
		t.Errorf("memory/disk byte ratio %.2f unexpectedly far from 1", r)
	}
}

func TestReadMissingDatabase(t *testing.T) {
	if _, _, err := ReadRankDatabase(t.TempDir(), 0); err == nil {
		t.Error("reading a missing database succeeded")
	}
}

func TestReadWrongRank(t *testing.T) {
	g := buildGlobe(t, 4)
	dir := t.TempDir()
	if _, err := WriteRankDatabase(dir, g.Locals[2], g.Plans[2]); err != nil {
		t.Fatal(err)
	}
	// Rename rank 2's header to rank 0 to simulate a mixed-up database.
	old := filepath.Join(dir, "proc000002_header.bin")
	niu := filepath.Join(dir, "proc000000_header.bin")
	if err := os.Rename(old, niu); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadRankDatabase(dir, 0); err == nil {
		t.Error("mismatched rank header accepted")
	}
}

func BenchmarkLegacyWrite(b *testing.B) {
	g := buildGlobe(b, 4)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WriteRankDatabase(dir, g.Locals[0], g.Plans[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergedHandoff(b *testing.B) {
	g := buildGlobe(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MergedHandoff(g.Locals)
	}
}

// readAll runs ReadAllRanks, turning a panic into a test failure.
func readAll(t *testing.T, dir string, nRanks int) (err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("ReadAllRanks panicked: %v", p)
			err = nil
		}
	}()
	_, _, err = ReadAllRanks(dir, nRanks)
	return err
}

// A corrupt database is an error, never a panic or a mesh that reaches
// the solver: every file of a rank truncated to 10 bytes and by its last
// 4, a point count the header cannot hold, a trailing byte, and one
// Ibool entry outside the region's points.
func TestCorruptDatabaseIsAnError(t *testing.T) {
	g := buildGlobe(t, 4)
	dir := t.TempDir()
	if _, err := WriteRankDatabase(dir, g.Locals[0], g.Plans[0]); err != nil {
		t.Fatal(err)
	}
	if err := readAll(t, dir, 1); err != nil {
		t.Fatalf("intact database: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// corrupt rewrites one file, reads the database back and restores it.
	corrupt := func(name, what string, edit func([]byte) []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(append([]byte(nil), orig...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := readAll(t, dir, 1); err == nil {
			t.Errorf("%s %s: read succeeded", name, what)
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range entries {
		corrupt(e.Name(), "cut to 10 bytes", func(b []byte) []byte { return b[:10] })
		corrupt(e.Name(), "without its last 4 bytes", func(b []byte) []byte { return b[:len(b)-4] })
		corrupt(e.Name(), "with a trailing byte", func(b []byte) []byte { return append(b, 0) })
	}
	corrupt("proc000000_header.bin", "claiming 2^32-1 elements", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], math.MaxUint32)
		return b
	})
	nglob := g.Locals[0].Regions[0].NGlob
	corrupt("proc000000_reg0_ibool.bin", "with ibool[7] = NGlob", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[4+4*7:], uint32(nglob))
		return b
	})
	if err := readAll(t, dir, 1); err != nil {
		t.Fatalf("restored database: %v", err)
	}
}

// A rank whose fluid and inner-core regions are empty (a box mesh) reads
// back its whole halo plan: the header records every region the same
// way, present or empty, so the plan that follows stays aligned.
func TestRoundTripEmptyRegions(t *testing.T) {
	b, err := boxmesh.Build(boxmesh.Config{
		Nx: 4, Ny: 2, Nz: 2, Lx: 4e3, Ly: 2e3, Lz: 2e3, NRanks: 2,
		Mat: earthmodel.Material{Rho: 2700, Vp: 8000, Vs: 4500, Qmu: 60, Qkappa: 57823},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteAllRanks(dir, b.Locals, b.Plans); err != nil {
		t.Fatal(err)
	}
	_, plans, err := ReadAllRanks(dir, len(b.Locals))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plans, b.Plans) {
		t.Errorf("halo plans read back differ from the written ones")
	}
}
