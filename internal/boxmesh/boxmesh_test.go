package boxmesh

import (
	"math"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

var mat = earthmodel.Material{Rho: 2700, Vp: 8000, Vs: 4500, Qmu: 600, Qkappa: 57823}

func TestBuildValidation(t *testing.T) {
	bad := []Config{
		{Nx: 0, Ny: 1, Nz: 1, Lx: 1, Ly: 1, Lz: 1, NRanks: 1, Mat: mat},
		{Nx: 1, Ny: 1, Nz: 1, Lx: 0, Ly: 1, Lz: 1, NRanks: 1, Mat: mat},
		{Nx: 4, Ny: 1, Nz: 1, Lx: 1, Ly: 1, Lz: 1, NRanks: 3, Mat: mat},
		{Nx: 1, Ny: 1, Nz: 1, Lx: 1, Ly: 1, Lz: 1, NRanks: 0, Mat: mat},
		{Nx: 1, Ny: 1, Nz: 1, Lx: 1, Ly: 1, Lz: 1, NRanks: 1},
	}
	for i, cfg := range bad {
		if _, err := Build(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestBoxStructureAndVolume(t *testing.T) {
	b, err := Build(Config{Nx: 4, Ny: 3, Nz: 2, Lx: 40, Ly: 30, Lz: 20, NRanks: 2, Mat: mat})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Locals) != 2 {
		t.Fatalf("%d ranks", len(b.Locals))
	}
	total := 0
	vol := 0.0
	for _, l := range b.Locals {
		r := l.Regions[earthmodel.RegionCrustMantle]
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
		total += r.NSpec
		vol += r.Volume()
	}
	if total != 4*3*2 {
		t.Errorf("%d elements, want 24", total)
	}
	// Affine elements integrate the volume exactly.
	if math.Abs(vol-40*30*20) > 1e-6*vol {
		t.Errorf("volume %v want %v", vol, 40*30*20)
	}
}

// The split planes must produce matching halo points between slabs:
// each interface holds (4*Ny+1)(4*Nz+1) GLL points... verify counts are
// consistent and symmetric.
func TestBoxHalo(t *testing.T) {
	b, err := Build(Config{Nx: 4, Ny: 2, Nz: 2, Lx: 40, Ly: 20, Lz: 20, NRanks: 4, Mat: mat})
	if err != nil {
		t.Fatal(err)
	}
	kind := int(earthmodel.RegionCrustMantle)
	// Interface between slab i and i+1: one shared plane of
	// (NGLL-1)*Ny+1 by (NGLL-1)*Nz+1 points.
	wantPlane := ((mesh.NGLL-1)*2 + 1) * ((mesh.NGLL-1)*2 + 1)
	for rank := 0; rank < 3; rank++ {
		edges := b.Plans[rank].Edges[kind]
		found := false
		for _, e := range edges {
			if e.Peer == rank+1 {
				found = true
				if len(e.Idx) != wantPlane {
					t.Errorf("rank %d->%d shares %d points, want %d", rank, rank+1, len(e.Idx), wantPlane)
				}
			}
		}
		if !found {
			t.Errorf("rank %d has no edge to %d", rank, rank+1)
		}
	}
	// Non-adjacent slabs share nothing.
	for _, e := range b.Plans[0].Edges[kind] {
		if e.Peer == 2 || e.Peer == 3 {
			t.Errorf("slab 0 shares points with non-adjacent slab %d", e.Peer)
		}
	}
}

func TestLocateRoundTrip(t *testing.T) {
	b, err := Build(Config{Nx: 4, Ny: 4, Nz: 4, Lx: 40, Ly: 40, Lz: 40, NRanks: 2, Mat: mat})
	if err != nil {
		t.Fatal(err)
	}
	cases := [][3]float64{
		{5, 5, 5}, {20, 20, 20}, {39.9, 0.1, 35}, {0, 0, 0}, {40, 40, 40},
	}
	for _, c := range cases {
		rank, elem, ref, err := b.Locate(c[0], c[1], c[2])
		if err != nil {
			t.Fatalf("locate %v: %v", c, err)
		}
		reg := b.Locals[rank].Regions[earthmodel.RegionCrustMantle]
		if elem < 0 || elem >= reg.NSpec {
			t.Fatalf("locate %v: element %d out of range", c, elem)
		}
		got := mesh.InterpolateGeometry(reg, elem, ref)
		for d := 0; d < 3; d++ {
			if math.Abs(got[d]-c[d]) > 1e-9*40 {
				t.Fatalf("locate %v: interpolates to %v", c, got)
			}
		}
	}
	if _, _, _, err := b.Locate(-1, 0, 0); err == nil {
		t.Error("outside point accepted")
	}
	if _, _, _, err := b.Locate(0, 99, 0); err == nil {
		t.Error("outside point accepted")
	}
}

// Jacobian factors of the affine elements must be exact.
func TestBoxJacobian(t *testing.T) {
	b, err := Build(Config{Nx: 2, Ny: 2, Nz: 2, Lx: 20, Ly: 40, Lz: 80, NRanks: 1, Mat: mat})
	if err != nil {
		t.Fatal(err)
	}
	r := b.Locals[0].Regions[earthmodel.RegionCrustMantle]
	// Element half-sizes: hx=5, hy=10, hz=20 -> det = 1000.
	for ip := 0; ip < mesh.NGLL3; ip++ {
		if math.Abs(float64(r.Jac[ip])-1000) > 1e-3 {
			t.Fatalf("det %v want 1000", r.Jac[ip])
		}
		if math.Abs(float64(r.Xix[ip])-0.2) > 1e-6 {
			t.Fatalf("xix %v want 0.2", r.Xix[ip])
		}
		if math.Abs(float64(r.Etay[ip])-0.1) > 1e-6 {
			t.Fatalf("etay %v want 0.1", r.Etay[ip])
		}
		if math.Abs(float64(r.Gamz[ip])-0.05) > 1e-6 {
			t.Fatalf("gamz %v want 0.05", r.Gamz[ip])
		}
	}
}

func BenchmarkBoxBuild(b *testing.B) {
	cfg := Config{Nx: 4, Ny: 4, Nz: 4, Lx: 40, Ly: 40, Lz: 40, NRanks: 1, Mat: mat}
	for i := 0; i < b.N; i++ {
		if _, err := Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The grid numbering is the coordinate-key numbering it replaced: number
// every element node by the exact bits of its position, in first-sight
// order, and compare Ibool and the Pts bits on every rank.
func TestGridNumberingMatchesKeys(t *testing.T) {
	b, err := Build(Config{Nx: 4, Ny: 3, Nz: 2, Lx: 40, Ly: 30, Lz: 20, NRanks: 2, Mat: mat})
	if err != nil {
		t.Fatal(err)
	}
	bits := func(p [3]float64) [3]uint64 {
		return [3]uint64{math.Float64bits(p[0]), math.Float64bits(p[1]), math.Float64bits(p[2])}
	}
	perRank := b.Cfg.Nx / b.Cfg.NRanks
	for rank, l := range b.Locals {
		r := l.Regions[earthmodel.RegionCrustMantle]
		byKey := map[[3]uint64]int32{}
		var pts [][3]float64
		e := 0
		for k := 0; k < b.Cfg.Nz; k++ {
			for j := 0; j < b.Cfg.Ny; j++ {
				for i := rank * perRank; i < (rank+1)*perRank; i++ {
					for n := 0; n < mesh.NGLL3; n++ {
						ii, jj, kk := n%mesh.NGLL, n/mesh.NGLL%mesh.NGLL, n/mesh.NGLL2
						p := [3]float64{lerp(b.gx[i], b.gx[i+1], gllS[ii]), lerp(b.gy[j], b.gy[j+1], gllS[jj]), lerp(b.gz[k], b.gz[k+1], gllS[kk])}
						id, ok := byKey[bits(p)]
						if !ok {
							id = int32(len(pts))
							byKey[bits(p)] = id
							pts = append(pts, p)
						}
						if got := r.Ibool[mesh.Idx(e, ii, jj, kk)]; got != id {
							t.Fatalf("rank %d element %d node %d: point %d, key numbering %d", rank, e, n, got, id)
						}
					}
					e++
				}
			}
		}
		if len(pts) != r.NGlob || len(r.Pts) != r.NGlob {
			t.Fatalf("rank %d: %d points (%d stored), key numbering %d", rank, r.NGlob, len(r.Pts), len(pts))
		}
		for id := range pts {
			if bits(pts[id]) != bits(r.Pts[id]) {
				t.Fatalf("rank %d point %d at %v, key numbering %v", rank, id, r.Pts[id], pts[id])
			}
		}
	}
}
