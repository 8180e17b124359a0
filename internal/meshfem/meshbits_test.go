package meshfem

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

// updateMeshBits rewrites testdata/mesh_bits.json from the current
// code. Only legitimate after a change that is MEANT to move the mesh;
// a mesher optimisation must replay the committed file.
var updateMeshBits = flag.Bool("update-mesh-bits", false, "rewrite testdata/mesh_bits.json from this build")

const meshBitsPath = "testdata/mesh_bits.json"

// meshBitsFixture is the cross-commit record of what the mesher hands
// the solver: same-commit `==` tests (two-pass vs single-pass, halo
// symmetry) compare two outputs of one build and cannot see a refactor
// that moves both.
type meshBitsFixture struct {
	GOARCH string         `json:"goarch"`
	Cases  []meshBitsCase `json:"cases"`
}

type meshBitsCase struct {
	Name string `json:"name"`
	// Ranks holds one FNV-64a per rank over every array of its
	// mesh.Local and its mesh.HaloPlan (see hashRank).
	Ranks []string `json:"ranks"`
}

// meshBitsConfigs is the replayed set: single-resolution and doubled
// globes, 6 and 24 ranks, hand-set and derived doubling radii (the
// derived ones of the homogeneous model both fall in the fluid core,
// the hand-set PREM ones in mantle and core), the legacy two-pass
// build, and the one-region solid ball whose cube hangs off the
// crust/mantle region.
func meshBitsConfigs() []struct {
	name string
	cfg  Config
} {
	solid := earthmodel.NewHomogeneous(6371e3, earthmodel.Material{
		Rho: 5000, Vp: 10000, Vs: 5500, Qmu: 300, Qkappa: 57823,
	})
	return []struct {
		name string
		cfg  Config
	}{
		{"earthlike/nex4/nproc1", Config{NexXi: 4, NProcXi: 1, Model: testModel()}},
		{"earthlike/nex4/nproc2", Config{NexXi: 4, NProcXi: 2, Model: testModel()}},
		{"prem/nex8/doubled", Config{NexXi: 8, NProcXi: 1, Model: earthmodel.NewPREM(), Doublings: []float64{5200e3, 3000e3}}},
		{"earthlike/nex8/nproc2", Config{NexXi: 8, NProcXi: 2, Model: testModel()}},
		{"earthlike/nex8/auto", Config{NexXi: 8, NProcXi: 1, Model: testModel(), AutoDoubling: &AutoDoubling{}}},
		{"earthlike/nex4/twopass", Config{NexXi: 4, NProcXi: 1, Model: testModel(), TwoPassMaterials: true}},
		{"solidball/nex4/nproc1", Config{NexXi: 4, NProcXi: 1, Model: solid}},
	}
}

// bitHasher streams little-endian words into an FNV-64a. Every slice is
// prefixed with its length, so moving a value between neighbouring
// arrays changes the hash.
type bitHasher struct {
	h   hash.Hash64
	buf []byte
}

func (b *bitHasher) u64(v uint64) {
	b.buf = append(b.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	if len(b.buf) >= 1<<12 {
		b.flush()
	}
}

func (b *bitHasher) u32(v uint32) {
	b.buf = append(b.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	if len(b.buf) >= 1<<12 {
		b.flush()
	}
}

func (b *bitHasher) flush() {
	b.h.Write(b.buf)
	b.buf = b.buf[:0]
}

func (b *bitHasher) i32s(s []int32) {
	b.u64(uint64(len(s)))
	for _, v := range s {
		b.u32(uint32(v))
	}
}

func (b *bitHasher) f32s(ss ...[]float32) {
	for _, s := range ss {
		b.u64(uint64(len(s)))
		for _, v := range s {
			b.u32(math.Float32bits(v))
		}
	}
}

func (b *bitHasher) faces(fs []mesh.CoupleFace) {
	b.u64(uint64(len(fs)))
	for i := range fs {
		f := &fs[i]
		b.u64(uint64(f.SolidKind))
		b.i32s(f.SolidPt[:])
		b.i32s(f.FluidPt[:])
		b.f32s(f.Nx[:], f.Ny[:], f.Nz[:], f.Weight[:])
	}
}

// hashRank folds one rank's whole hand-off — every Region array, the
// CMB/ICB coupling faces, the surface load and every halo edge — into
// one hash.
func hashRank(l *mesh.Local, p *mesh.HaloPlan) string {
	b := &bitHasher{h: fnv.New64a()}
	b.u64(uint64(l.Rank))
	for _, r := range l.Regions {
		if r == nil {
			b.u64(math.MaxUint64)
			continue
		}
		b.u64(uint64(r.Kind))
		b.u64(uint64(r.NSpec))
		b.u64(uint64(r.NGlob))
		b.i32s(r.Ibool)
		b.u64(uint64(len(r.Pts)))
		for _, pt := range r.Pts {
			b.u64(math.Float64bits(pt[0]))
			b.u64(math.Float64bits(pt[1]))
			b.u64(math.Float64bits(pt[2]))
		}
		b.f32s(r.Xix, r.Xiy, r.Xiz, r.Etax, r.Etay, r.Etaz, r.Gamx, r.Gamy, r.Gamz,
			r.Jac, r.JacW, r.Rho, r.Kappa, r.Mu, r.Qmu, r.Qkappa, r.Mass)
	}
	b.faces(l.CMB)
	b.faces(l.ICB)
	s := &l.Surface
	b.i32s(s.Pts)
	b.f32s(s.Nx, s.Ny, s.Nz, s.AreaW)
	b.u64(math.Float64bits(s.WaterRho))
	b.u64(math.Float64bits(s.WaterDepth))
	b.u64(uint64(p.Rank))
	for _, edges := range p.Edges {
		b.u64(uint64(len(edges)))
		for _, e := range edges {
			b.u64(uint64(e.Peer))
			b.i32s(e.Idx)
		}
	}
	b.flush()
	return fmt.Sprintf("%016x", b.h.Sum64())
}

// TestMeshBits replays the committed mesh hashes. The fixture was
// recorded before the mesher's set-up path was optimised (hoisted
// element tables, exterior-face halo plan, ranks built concurrently),
// so it certifies that none of that moved a bit; GOMAXPROCS 1 and 4
// cover both sides of the concurrent rank build.
func TestMeshBits(t *testing.T) {
	configs := meshBitsConfigs()
	var want meshBitsFixture
	if !*updateMeshBits {
		raw, err := os.ReadFile(meshBitsPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if want.GOARCH != runtime.GOARCH {
			t.Skipf("fixture recorded on %s, running on %s: FMA fusion is per-architecture", want.GOARCH, runtime.GOARCH)
		}
		if len(want.Cases) != len(configs) {
			t.Fatalf("fixture has %d cases, matrix has %d", len(want.Cases), len(configs))
		}
	}

	// replay builds every shape at one GOMAXPROCS and returns its hashes.
	replay := func(procs int) []meshBitsCase {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var cases []meshBitsCase
		for _, c := range configs {
			g, err := Build(c.cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			mc := meshBitsCase{Name: c.name}
			for r, l := range g.Locals {
				mc.Ranks = append(mc.Ranks, hashRank(l, g.Plans[r]))
			}
			cases = append(cases, mc)
		}
		return cases
	}
	if *updateMeshBits {
		raw, err := json.MarshalIndent(meshBitsFixture{GOARCH: runtime.GOARCH, Cases: replay(1)}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(meshBitsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", meshBitsPath)
		return
	}
	for _, procs := range []int{1, 4} {
		for i, mc := range replay(procs) {
			w := want.Cases[i]
			if w.Name != mc.Name {
				t.Fatalf("case %d: fixture is %q, matrix is %q", i, w.Name, mc.Name)
			}
			if len(mc.Ranks) != len(w.Ranks) {
				t.Errorf("%s (GOMAXPROCS %d): %d ranks, recorded %d", mc.Name, procs, len(mc.Ranks), len(w.Ranks))
				continue
			}
			for r := range mc.Ranks {
				if mc.Ranks[r] != w.Ranks[r] {
					t.Errorf("%s (GOMAXPROCS %d): rank %d hashes to %s, recorded %s",
						mc.Name, procs, r, mc.Ranks[r], w.Ranks[r])
				}
			}
		}
	}
}
