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

// hashRank folds one rank's whole hand-off into one hash: every array a
// Region keeps (the solid's Kappa and Mu, the fluid's Rho), every
// ElemAudit field and the region's StableDt, the CMB/ICB coupling
// faces, the surface load and every halo edge.
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
		b.f32s(r.Xix, r.Xiy, r.Xiz, r.Etax, r.Etay, r.Etaz, r.Gamx, r.Gamy, r.Gamz, r.Jac)
		if r.IsFluid() {
			b.f32s(r.Rho)
		} else {
			b.f32s(r.Kappa, r.Mu)
		}
		b.f32s(r.Qmu, r.Qkappa, r.Mass)
		b.u64(uint64(len(r.Audit)))
		for _, a := range r.Audit {
			for _, v := range [...]float64{a.MinSpacing, a.MaxVp, a.HMax, a.VMin} {
				b.u64(math.Float64bits(v))
			}
		}
		b.u64(math.Float64bits(r.StableDt(mesh.Courant)))
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

// TestMeshBits replays the committed mesh hashes. The set-up path's
// optimisations (hoisted element tables, exterior-face halo plan, ranks
// built concurrently) were each replayed against it without moving a
// bit. It was re-recorded on purpose when the metric's rounding residue
// began to be snapped to +0 (snapResidue), and when the hash narrowed to
// the arrays a session keeps and took in the element audit, which sets
// dt (no mesh moved then). GOMAXPROCS 1 and 4 cover both sides of the
// concurrent rank build.
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

// TestMetricHasNoResidue checks that no inverse-Jacobian entry is
// float64 rounding residue: on every TestMeshBits shape, each entry is
// +0 or within 2^40 of its point's largest, and nothing sits between
// 2^-48 and 2^-16 of that largest, so the snap threshold lies inside
// the gap between residue and geometry. A residue entry times a small
// gradient is a float32 subnormal in the stress and fluid stages.
func TestMetricHasNoResidue(t *testing.T) {
	snap, gapLo, gapHi := math.Ldexp(1, -40), math.Ldexp(1, -48), math.Ldexp(1, -16)
	for _, c := range meshBitsConfigs() {
		g, err := Build(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		residue, inGap, entries := 0, 0, 0
		// lo and hi bracket the gap: the largest ratio at or below
		// gapLo and the smallest non-zero ratio at or above gapHi.
		lo, hi := 0.0, 1.0
		for _, l := range g.Locals {
			for _, r := range l.Regions {
				if r == nil {
					continue
				}
				arrays := [9][]float32{r.Xix, r.Xiy, r.Xiz, r.Etax, r.Etay, r.Etaz, r.Gamx, r.Gamy, r.Gamz}
				for ip := range r.Xix {
					top := 0.0
					for _, a := range arrays {
						top = max(top, math.Abs(float64(a[ip])))
					}
					for _, a := range arrays {
						v := math.Abs(float64(a[ip]))
						if v == 0 {
							continue
						}
						entries++
						ratio := v / top
						if ratio < snap {
							residue++
						}
						if ratio > gapLo && ratio < gapHi {
							inGap++
						}
						if ratio <= gapLo {
							lo = max(lo, ratio)
						} else if ratio >= gapHi {
							hi = min(hi, ratio)
						}
					}
				}
			}
		}
		t.Logf("%s: %d non-zero entries, %d below 2^-40 of their point's largest, %d in the gap; largest small ratio 2^%.1f, smallest other 2^%.1f",
			c.name, entries, residue, inGap, math.Log2(lo), math.Log2(hi))
		if residue != 0 {
			t.Errorf("%s: %d inverse-Jacobian entries below 2^-40 of their point's largest (rounding residue)", c.name, residue)
		}
		if inGap != 0 {
			t.Errorf("%s: %d inverse-Jacobian entries between 2^-48 and 2^-16 of their point's largest", c.name, inGap)
		}
	}
}

// TestLayerDtRatios characterises which layer sets the time step: on
// every TestMeshBits shape it pins the governing row of LayerAudits and
// each row's MinDt over the smallest, the column cmd/meshfem prints
// against mesh.StableDt, together with StableDt over that smallest (it
// pairs region-wide extremes, so it sits below it on doubled meshes).
// The values are exact: a change that moves them reshapes the mesh, as
// a doubling brick or a per-element dt rule will, on purpose.
func TestLayerDtRatios(t *testing.T) {
	nex4 := []float64{6.820487418061583, 2.3940302819431682, 4.607258850002376, 1.1970151409715841, 1.795522711457375, 1}
	want := map[string]struct {
		governing int
		stable    float64
		ratios    []float64
	}{
		"earthlike/nex4/nproc1":  {5, 1, nex4},
		"earthlike/nex4/nproc2":  {5, 1, nex4},
		"earthlike/nex4/twopass": {5, 1, nex4},
		"prem/nex8/doubled": {1, 0.92907493651758, []float64{5.088311970124045, 1, 1.0531293521956513, 3.4040873506549434, 3.3480610063048735,
			4.485397920104539, 5.789304155933894, 1.5096282050093262, 1.6050310138143948, 5.449398729762441, 2.7150848016705638, 2.7009570294667444}},
		"earthlike/nex8/nproc2": {11, 1, []float64{6.945206968346649, 8.868443878834217, 10.791680789321772, 2.437807560872251, 3.3392874423671253,
			4.240767323862006, 5.142247205356889, 6.04372708685177, 1.2189037804361256, 1.6252050405815013, 2.031506300726875, 1}},
		"earthlike/nex8/auto": {8, 1, []float64{5.7775163699056655, 7.377401410652536, 8.977286451399396, 4.287238201288967, 1.5312587744625599,
			1.5312587744625494, 1.5491178336310718, 1.0000000000000047, 1, 1.014167085175536, 3.6555303081194372, 3.6555303081194372}},
		"solidball/nex4/nproc1": {4, 1, []float64{1.1970151409715837, 2.892786590681329, 4.588558040391074, 6.205824772185592, 1}},
	}
	for _, c := range meshBitsConfigs() {
		g, err := Build(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rows := g.LayerAudits(g.ShortestPeriod, mesh.Courant)
		gov := 0
		for i, la := range rows {
			if la.MinDt < rows[gov].MinDt {
				gov = i
			}
		}
		w, smallest := want[c.name], rows[gov].MinDt
		if gov != w.governing || len(rows) != len(w.ratios) {
			t.Errorf("%s: row %d of %d governs dt, want row %d of %d", c.name, gov, len(rows), w.governing, len(w.ratios))
			continue
		}
		if s := mesh.StableDt(g.Locals, mesh.Courant) / smallest; s != w.stable {
			t.Errorf("%s: StableDt is %v of the smallest layer dt, want %v", c.name, s, w.stable)
		}
		for i, la := range rows {
			if r := la.MinDt / smallest; r != w.ratios[i] {
				t.Errorf("%s: row %d (%v, r0 %.0f km) dt/min %v, want %v", c.name, i, la.Region, la.R0/1e3, r, w.ratios[i])
			}
		}
	}
}
