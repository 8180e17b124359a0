// External test package: the halo plan is checked against the all-points
// reference on real meshes from meshfem and boxmesh (which import mesh).
package mesh_test

import (
	"reflect"
	"testing"

	"specglobe/internal/boxmesh"
	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
)

func earthlike() earthmodel.Model {
	h := earthmodel.NewHomogeneous(6371e3, earthmodel.Material{
		Rho: 5000, Vp: 10000, Vs: 5500, Qmu: 300, Qkappa: 57823,
	})
	h.ICBRadius = 1221.5e3
	h.CMBRadius = 3480e3
	return h
}

func buildGlobe(t *testing.T, cfg meshfem.Config) []*mesh.Local {
	t.Helper()
	g, err := meshfem.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g.Locals
}

// checkAgainstAllPoints asserts that BuildHalo equals the all-points
// reference on locals, that every shared point is one the exterior-face
// scan offered, and returns the plans' total boundary point count.
func checkAgainstAllPoints(t *testing.T, name string, locals []*mesh.Local) int {
	t.Helper()
	got, err := mesh.BuildHalo(locals)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := mesh.BuildHaloAllPoints(locals)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: exterior-face halo plans differ from the all-points reference", name)
	}
	boundary := 0
	for rank, p := range want {
		boundary += p.BoundaryPoints()
		for kind, edges := range p.Edges {
			if len(edges) == 0 {
				continue
			}
			exterior := map[int32]bool{}
			for _, idx := range mesh.ExteriorPoints(locals[rank].Regions[kind]) {
				exterior[idx] = true
			}
			for _, e := range edges {
				for _, idx := range e.Idx {
					if !exterior[idx] {
						t.Fatalf("%s: rank %d region %d: point %d is shared with rank %d but on no exterior face",
							name, rank, kind, idx, e.Peer)
					}
				}
			}
		}
	}
	return boundary
}

// The exterior-face matcher must return the plans the all-points
// matcher returns — on single-resolution and doubled globes at 6 and 24
// ranks (doubling bricks, central-cube sectoring), on a slab-split box,
// and on the box whose second rank carries a grafted fluid region no
// other rank has. The boundary point totals are the ones specbench
// reports as mesh.halo_boundary_points.
func TestBuildHaloMatchesAllPoints(t *testing.T) {
	model := earthlike()
	setupMix := 0
	for _, c := range []struct {
		name string
		cfg  meshfem.Config
	}{
		{"earthlike/nex4/nproc1", meshfem.Config{NexXi: 4, NProcXi: 1, Model: model}},
		{"prem/nex8/doubled", meshfem.Config{NexXi: 8, NProcXi: 1, Model: earthmodel.NewPREM(), Doublings: []float64{5200e3, 3000e3}}},
		{"earthlike/nex4/nproc2", meshfem.Config{NexXi: 4, NProcXi: 2, Model: model}},
	} {
		setupMix += checkAgainstAllPoints(t, c.name, buildGlobe(t, c.cfg))
	}
	if setupMix != 64504 {
		t.Errorf("mesh_setup mix: %d halo boundary points, want 64504", setupMix)
	}
	sliced := checkAgainstAllPoints(t, "earthlike/nex8/nproc2",
		buildGlobe(t, meshfem.Config{NexXi: 8, NProcXi: 2, Model: model}))
	if sliced != 104484 {
		t.Errorf("sliced_stations mesh: %d halo boundary points, want 104484", sliced)
	}
	checkAgainstAllPoints(t, "earthlike/nex8/auto",
		buildGlobe(t, meshfem.Config{NexXi: 8, NProcXi: 1, Model: model, AutoDoubling: &meshfem.AutoDoubling{}}))

	locals, _ := buildRanks(t, 4)
	if n := checkAgainstAllPoints(t, "box/4ranks", locals); n == 0 {
		t.Error("box/4ranks: no shared points — the comparison is vacuous")
	}

	// The mixed-region world of solver.TestMixedRegionTagAlignment: a
	// two-rank box whose rank 1 also holds a standalone fluid region.
	locals, _ = buildRanks(t, 2)
	donor, err := boxmesh.Build(boxmesh.Config{
		Nx: 2, Ny: 2, Nz: 2, Lx: 5e3, Ly: 5e3, Lz: 5e3, NRanks: 1,
		Mat: earthmodel.Material{Rho: 2700, Vp: 8000, Vs: 4500, Qmu: 60, Qkappa: 57823},
	})
	if err != nil {
		t.Fatal(err)
	}
	fluid := donor.Locals[0].Regions[earthmodel.RegionCrustMantle]
	fluid.Kind = earthmodel.RegionOuterCore
	locals[1].Regions[earthmodel.RegionOuterCore] = fluid
	checkAgainstAllPoints(t, "box/2ranks+fluid", locals)
}
