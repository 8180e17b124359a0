package mesh_test

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/meshio"
	"specglobe/internal/renumber"
)

// auditMeshes returns the meshes the audit, the corner coloring and the
// sharded halo match are checked on: a doubled PREM globe (doubling
// templates, fluid outer core, central cube), the 24-rank earthlike
// globe, a four-rank box, the earthlike globe read back from a legacy
// database, and a globe whose every region had its elements shuffled.
func auditMeshes(t *testing.T) map[string][]*mesh.Local {
	t.Helper()
	ms := map[string][]*mesh.Local{
		"prem/nex8/doubled": buildGlobe(t, meshfem.Config{NexXi: 8, NProcXi: 1, Model: earthmodel.NewPREM(),
			Doublings: []float64{5200e3, 3000e3}}),
		"earthlike/nex4/nproc2": buildGlobe(t, meshfem.Config{NexXi: 4, NProcXi: 2, Model: earthlike()}),
	}
	ms["box/4ranks"], _ = buildRanks(t, 4)

	g, err := meshfem.Build(meshfem.Config{NexXi: 4, NProcXi: 1, Model: earthlike()})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := meshio.WriteAllRanks(dir, g.Locals, g.Plans); err != nil {
		t.Fatal(err)
	}
	if ms["legacy/earthlike/nex4"], _, err = meshio.ReadAllRanks(dir, len(g.Locals)); err != nil {
		t.Fatal(err)
	}

	shuffled := buildGlobe(t, meshfem.Config{NexXi: 4, NProcXi: 1, Model: earthlike()})
	rng := rand.New(rand.NewSource(33))
	for _, l := range shuffled {
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
	ms["shuffled/earthlike/nex4"] = shuffled
	return ms
}

// The audit's geometry, taken from each element's node table as it is
// folded, is the per-element rescans of the global points, bit for bit,
// and every value derived from the audit is that arithmetic on the
// rescans and the audit's velocities.
func TestAuditEqualsRescan(t *testing.T) {
	const courant, period = 0.3, 60.0
	for name, locals := range auditMeshes(t) {
		dt := math.Inf(1)
		for _, l := range locals {
			for _, reg := range l.Regions {
				if len(reg.Audit) != reg.NSpec {
					t.Fatalf("%s rank %d %v: %d audits for %d elements", name, l.Rank, reg.Kind, len(reg.Audit), reg.NSpec)
				}
				if reg.NSpec == 0 {
					continue
				}
				minD, maxV := math.Inf(1), 0.0
				for e := 0; e < reg.NSpec; e++ {
					want := reg.Audit[e]
					if d, h := mesh.RescanGeometry(reg, e); want.MinSpacing != d || want.HMax != h {
						t.Fatalf("%s rank %d %v element %d: audit %+v, rescan spacing %v, coarsest line %v", name, l.Rank, reg.Kind, e, want, d, h)
					}
					if got := reg.ElementDt(e, courant); got != courant*want.MinSpacing/want.MaxVp {
						t.Fatalf("%s: ElementDt %v off the rescan", name, got)
					}
					if got := reg.PtsPerWavelength(e, period); got != want.VMin*period/want.HMax {
						t.Fatalf("%s: PtsPerWavelength %v off the rescan", name, got)
					}
					minD, maxV = min(minD, want.MinSpacing), max(maxV, want.MaxVp)
				}
				if got, want := reg.StableDt(courant), courant*minD/maxV; got != want {
					t.Fatalf("%s rank %d %v: StableDt %v, rescan %v", name, l.Rank, reg.Kind, got, want)
				}
				dt = min(dt, courant*minD/maxV)
			}
		}
		if got := mesh.StableDt(locals, courant); got != dt {
			t.Errorf("%s: mesh.StableDt %v, rescan %v", name, got, dt)
		}
	}
}

// The corner-node conflict graph colors every mesh exactly as the
// all-points graph does.
func TestCornerColoringEqualsAllPoints(t *testing.T) {
	for name, locals := range auditMeshes(t) {
		for _, l := range locals {
			if got, want := mesh.BuildColoring(l), mesh.BuildColoringAllPoints(l); !reflect.DeepEqual(got, want) {
				t.Errorf("%s rank %d: corner coloring %v differs from the all-points coloring %v",
					name, l.Rank, got.NumColors, want.NumColors)
			}
		}
	}
}

// The sharded halo match returns the same plans, and reports the same
// duplicate point, whatever the shard count.
func TestBuildHaloIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, locals := range auditMeshes(t) {
		var want []*mesh.HaloPlan
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := mesh.BuildHalo(locals)
			if err != nil {
				t.Fatalf("%s (GOMAXPROCS %d): %v", name, procs, err)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: plans at GOMAXPROCS %d differ from GOMAXPROCS 1", name, procs)
			}
		}
	}

	// Two ranks that each index one exterior point twice: the error
	// names the lowest rank's, as the serial match did.
	locals, _ := buildRanks(t, 4)
	for _, rank := range []int{3, 2} {
		reg := locals[rank].Regions[earthmodel.RegionCrustMantle]
		ext := mesh.ExteriorPoints(reg)
		reg.Pts[ext[len(ext)-1]] = reg.Pts[ext[rank]]
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		_, err := mesh.BuildHalo(locals)
		if err == nil || !strings.Contains(err.Error(), "rank 2 indexed point") {
			t.Errorf("GOMAXPROCS %d: duplicate points reported as %v, want rank 2's", procs, err)
		}
	}
}
