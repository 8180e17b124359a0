package meshfem

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

// The lattice numbering's oracle is the coordinate-key numbering it
// replaced: replay each rank's element loop, number every node by the
// exact bits of the position its element computed, in first-sight
// order, and compare. Kept in the tests, as the all-points halo match
// is, so the lattice is checked on shapes the mesh_bits fixture does
// not record.

// bitsKey is a position's exact bit pattern.
type bitsKey [3]uint64

func keyOfPos(p [3]float64) bitsKey {
	return bitsKey{math.Float64bits(p[0]), math.Float64bits(p[1]), math.Float64bits(p[2])}
}

// keyNumbered is one region numbered by coordinate keys: its Ibool and
// Pts, and pos, the position each element computed for each node.
type keyNumbered struct {
	ibool []int32
	pts   [][3]float64
	pos   [][3]float64
}

// keyNumbering replays rank's element loop with a trace and numbers each
// region's nodes by coordinate key, keyed by region kind.
func keyNumbering(t *testing.T, g *Globe, rank int) map[earthmodel.Region]*keyNumbered {
	t.Helper()
	out := map[earthmodel.Region]*keyNumbered{}
	for si, sp := range g.specs {
		kn := &keyNumbered{}
		byKey := map[bitsKey]int32{}
		f := &elemFiller{g: g, rank: rank, trace: func(e int, nt *elemNodes) {
			for n := 0; n < mesh.NGLL3; n++ {
				p := [3]float64(nt.pos[n])
				k := keyOfPos(p)
				id, ok := byKey[k]
				if !ok {
					id = int32(len(kn.pts))
					byKey[k] = id
					kn.pts = append(kn.pts, p)
				}
				kn.ibool = append(kn.ibool, id)
				kn.pos = append(kn.pos, p)
			}
		}}
		if _, err := f.region(si); err != nil {
			t.Fatalf("rank %d %v: %v", rank, sp.kind, err)
		}
		out[sp.kind] = kn
	}
	return out
}

// oracleConfigs are shapes the mesh_bits fixture does not cover: PREM
// at NEX 16 on one rank with derived doublings, 96 two-element slices,
// and a solid ball meshed on 24 ranks and with a doubling above its
// cube.
func oracleConfigs() []struct {
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
		{"prem/nex16/auto", Config{NexXi: 16, NProcXi: 1, Model: earthmodel.NewPREM(), AutoDoubling: &AutoDoubling{}}},
		{"earthlike/nex8/nproc4", Config{NexXi: 8, NProcXi: 4, Model: testModel()}},
		{"solidball/nex8/nproc2", Config{NexXi: 8, NProcXi: 2, Model: solid}},
		{"solidball/nex8/doubled", Config{NexXi: 8, NProcXi: 1, Model: solid, Doublings: []float64{4000e3}}},
	}
}

// TestLatticeNumberingMatchesKeys builds every oracle shape and, on
// every rank and region, checks that the lattice numbering is the key
// numbering (== Ibool and Pts bits), that no two points share coordinate
// bits (no split), and that every element node's point sits at the
// position the element computed (no merge).
func TestLatticeNumberingMatchesKeys(t *testing.T) {
	for _, c := range oracleConfigs() {
		start := time.Now()
		g, err := Build(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for rank, l := range g.Locals {
			oracle := keyNumbering(t, g, rank)
			for _, sp := range g.specs {
				reg, kn := l.Regions[sp.kind], oracle[sp.kind]
				where := fmt.Sprintf("%s rank %d %v", c.name, rank, sp.kind)
				if !slices.Equal(reg.Ibool, kn.ibool) || !samePts(reg.Pts, kn.pts) {
					t.Fatalf("%s: lattice numbering differs from the key numbering (%d vs %d points)", where, len(reg.Pts), len(kn.pts))
				}
				seen := make(map[bitsKey]int32, len(reg.Pts))
				for id, p := range reg.Pts {
					if prev, dup := seen[keyOfPos(p)]; dup {
						t.Fatalf("%s: points %d and %d share position %v (split)", where, prev, id, p)
					}
					seen[keyOfPos(p)] = int32(id)
				}
				for ip, id := range reg.Ibool {
					if keyOfPos(reg.Pts[id]) != keyOfPos(kn.pos[ip]) {
						t.Fatalf("%s: element %d node %d is point %d at %v, computed at %v (merge)",
							where, ip/mesh.NGLL3, ip%mesh.NGLL3, id, reg.Pts[id], kn.pos[ip])
					}
				}
			}
		}
		t.Logf("%s: %d doubling radii, %v", c.name, len(g.Cfg.Doublings), time.Since(start))
	}
}

func samePts(a, b [][3]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if keyOfPos(a[i]) != keyOfPos(b[i]) {
			return false
		}
	}
	return true
}
