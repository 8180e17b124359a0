package meshfem

import (
	"math/rand"
	"testing"

	"specglobe/internal/boxmesh"
	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshio"
	"specglobe/internal/renumber"
)

// checkPointRanges fails unless every element's audited PtLo and PtHi
// are the smallest and largest point index of its Ibool — the range the
// solver's page marks read in place of the element's points.
func checkPointRanges(t *testing.T, name string, locals []*mesh.Local) {
	t.Helper()
	for _, l := range locals {
		for _, reg := range l.Regions {
			if len(reg.Audit) != reg.NSpec {
				t.Fatalf("%s rank %d %v: %d audits for %d elements", name, l.Rank, reg.Kind, len(reg.Audit), reg.NSpec)
			}
			for e, a := range reg.Audit {
				ib := reg.Ibool[e*mesh.NGLL3 : (e+1)*mesh.NGLL3]
				lo, hi := ib[0], ib[0]
				for _, g := range ib {
					lo, hi = min(lo, g), max(hi, g)
				}
				if a.PtLo != lo || a.PtHi != hi {
					t.Fatalf("%s rank %d %v element %d: audited points [%d, %d], Ibool spans [%d, %d]",
						name, l.Rank, reg.Kind, e, a.PtLo, a.PtHi, lo, hi)
				}
			}
		}
	}
}

// The element audit's point range is the Ibool range on every mesh the
// solver is handed: every TestMeshBits shape, a box, a globe read back
// from the legacy database, and a globe whose elements were permuted and
// whose points were then relabelled (renumber.RenumberPoints must move
// the ranges with the labels).
func TestElemAuditPointRange(t *testing.T) {
	for _, c := range meshBitsConfigs() {
		g, err := Build(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkPointRanges(t, c.name, g.Locals)
	}

	b, err := boxmesh.Build(boxmesh.Config{Nx: 4, Ny: 4, Nz: 4, Lx: 40e3, Ly: 40e3, Lz: 40e3, NRanks: 2,
		Mat: earthmodel.Material{Rho: 3000, Vp: 8000, Vs: 4500, Qmu: 300, Qkappa: 57823}})
	if err != nil {
		t.Fatal(err)
	}
	checkPointRanges(t, "box/2ranks", b.Locals)

	g, err := Build(Config{NexXi: 4, NProcXi: 1, Model: testModel()})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := meshio.WriteAllRanks(dir, g.Locals, g.Plans); err != nil {
		t.Fatal(err)
	}
	read, _, err := meshio.ReadAllRanks(dir, len(g.Locals))
	if err != nil {
		t.Fatal(err)
	}
	checkPointRanges(t, "legacy/nex4", read)

	rng := rand.New(rand.NewSource(35))
	for _, l := range g.Locals {
		for _, reg := range l.Regions {
			perm := make([]int32, reg.NSpec)
			for i, p := range rng.Perm(reg.NSpec) {
				perm[i] = int32(p)
			}
			if err := renumber.PermuteElements(reg, perm); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkPointRanges(t, "permuted/nex4", g.Locals)
	for _, l := range g.Locals {
		for _, reg := range l.Regions {
			scramble := make([]int32, reg.NGlob)
			for i, p := range rng.Perm(reg.NGlob) {
				scramble[i] = int32(p)
			}
			if err := renumber.RenumberPoints(reg, scramble); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkPointRanges(t, "renumbered/nex4", g.Locals)
}
