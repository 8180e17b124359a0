// External test package so the overlap classification can be exercised
// on real multi-rank meshes from boxmesh (which imports mesh).
package mesh_test

import (
	"testing"

	"specglobe/internal/boxmesh"
	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
)

func buildRanks(t *testing.T, nranks int) ([]*mesh.Local, []*mesh.HaloPlan) {
	t.Helper()
	b, err := boxmesh.Build(boxmesh.Config{
		Nx: 4, Ny: 4, Nz: 4,
		Lx: 40e3, Ly: 40e3, Lz: 40e3,
		NRanks: nranks,
		Mat:    earthmodel.Material{Rho: 2700, Vp: 8000, Vs: 4500, Qmu: 60, Qkappa: 57823},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.Locals, b.Plans
}

// Outer and Inner must partition the element set, in ascending order,
// with outer elements exactly those touching a halo point.
func TestBuildOverlapPartition(t *testing.T) {
	locals, plans := buildRanks(t, 4)
	for rank, l := range locals {
		ov := mesh.BuildOverlap(l, plans[rank])
		for kind := 0; kind < 3; kind++ {
			reg := l.Regions[kind]
			if reg == nil || reg.NSpec == 0 {
				if len(ov.Outer[kind])+len(ov.Inner[kind]) != 0 {
					t.Fatalf("rank %d kind %d: empty region classified", rank, kind)
				}
				continue
			}
			halo := make([]bool, reg.NGlob)
			for _, e := range plans[rank].Edges[kind] {
				for _, idx := range e.Idx {
					halo[idx] = true
				}
			}
			seen := make([]bool, reg.NSpec)
			check := func(elems []int32, wantOuter bool) {
				prev := int32(-1)
				for _, e := range elems {
					if e <= prev {
						t.Fatalf("rank %d kind %d: element order not ascending", rank, kind)
					}
					prev = e
					if seen[e] {
						t.Fatalf("rank %d kind %d: element %d classified twice", rank, kind, e)
					}
					seen[e] = true
					touches := false
					for _, g := range reg.Ibool[int(e)*mesh.NGLL3 : (int(e)+1)*mesh.NGLL3] {
						if halo[g] {
							touches = true
							break
						}
					}
					if touches != wantOuter {
						t.Fatalf("rank %d kind %d: element %d misclassified (outer=%v)",
							rank, kind, e, wantOuter)
					}
				}
			}
			check(ov.Outer[kind], true)
			check(ov.Inner[kind], false)
			for e, s := range seen {
				if !s {
					t.Fatalf("rank %d kind %d: element %d unclassified", rank, kind, e)
				}
			}
		}
	}
}

// A single-rank mesh has no halo, so every element must be inner.
func TestBuildOverlapSingleRankAllInner(t *testing.T) {
	locals, plans := buildRanks(t, 1)
	ov := mesh.BuildOverlap(locals[0], plans[0])
	if n := len(ov.Outer[earthmodel.RegionCrustMantle]); n != 0 {
		t.Errorf("single rank has %d outer elements", n)
	}
	if n := len(ov.Inner[earthmodel.RegionCrustMantle]); n != 64 {
		t.Errorf("single rank has %d inner elements, want 64", n)
	}
	if f := ov.OuterFraction(); f != 0 {
		t.Errorf("outer fraction %v on a single rank", f)
	}
}

// checkCouplingSplit asserts the CouplingSplit invariants for one rank:
// the three lists partition the element set in ascending order,
// HaloOuter equals Overlap.Outer, and the halo/coupling point touch
// relations hold per class.
func checkCouplingSplit(t *testing.T, rank int, l *mesh.Local, plan *mesh.HaloPlan) {
	t.Helper()
	cs := mesh.BuildCouplingSplit(l, plan)
	ov := mesh.BuildOverlap(l, plan)
	for kind := 0; kind < 3; kind++ {
		reg := l.Regions[kind]
		if reg == nil || reg.NSpec == 0 {
			if len(cs.HaloOuter[kind])+len(cs.CouplingOuter[kind])+len(cs.Inner[kind]) != 0 {
				t.Fatalf("rank %d kind %d: empty region classified", rank, kind)
			}
			continue
		}
		halo := make([]bool, reg.NGlob)
		for _, e := range plan.Edges[kind] {
			for _, idx := range e.Idx {
				halo[idx] = true
			}
		}
		couple := make([]bool, reg.NGlob)
		mark := func(faces []mesh.CoupleFace) {
			for fi := range faces {
				cf := &faces[fi]
				if reg.IsFluid() {
					for _, idx := range cf.FluidPt {
						couple[idx] = true
					}
				} else if int(cf.SolidKind) == kind {
					for _, idx := range cf.SolidPt {
						couple[idx] = true
					}
				}
			}
		}
		mark(l.CMB)
		mark(l.ICB)
		touches := func(e int32, flags []bool) bool {
			for _, g := range reg.Ibool[int(e)*mesh.NGLL3 : (int(e)+1)*mesh.NGLL3] {
				if flags[g] {
					return true
				}
			}
			return false
		}
		seen := make([]bool, reg.NSpec)
		walk := func(name string, elems []int32, want func(e int32) bool) {
			prev := int32(-1)
			for _, e := range elems {
				if e <= prev {
					t.Fatalf("rank %d kind %d: %s not ascending", rank, kind, name)
				}
				prev = e
				if seen[e] {
					t.Fatalf("rank %d kind %d: element %d classified twice", rank, kind, e)
				}
				seen[e] = true
				if !want(e) {
					t.Fatalf("rank %d kind %d: element %d misclassified as %s", rank, kind, e, name)
				}
			}
		}
		walk("halo-outer", cs.HaloOuter[kind], func(e int32) bool { return touches(e, halo) })
		walk("coupling-outer", cs.CouplingOuter[kind], func(e int32) bool {
			return !touches(e, halo) && touches(e, couple)
		})
		walk("inner", cs.Inner[kind], func(e int32) bool {
			return !touches(e, halo) && !touches(e, couple)
		})
		for e, s := range seen {
			if !s {
				t.Fatalf("rank %d kind %d: element %d unclassified", rank, kind, e)
			}
		}
		// HaloOuter must be exactly the Overlap outer list — the halo
		// post precondition is unchanged by the refinement.
		if len(cs.HaloOuter[kind]) != len(ov.Outer[kind]) {
			t.Fatalf("rank %d kind %d: halo-outer %d != overlap outer %d",
				rank, kind, len(cs.HaloOuter[kind]), len(ov.Outer[kind]))
		}
		for i, e := range cs.HaloOuter[kind] {
			if ov.Outer[kind][i] != e {
				t.Fatalf("rank %d kind %d: halo-outer diverges from overlap outer at %d", rank, kind, i)
			}
		}
	}
}

// Box meshes have no coupling faces: the split must degenerate to the
// Overlap classification with an empty CouplingOuter class.
func TestCouplingSplitBoxDegenerate(t *testing.T) {
	locals, plans := buildRanks(t, 2)
	for rank, l := range locals {
		checkCouplingSplit(t, rank, l, plans[rank])
		cs := mesh.BuildCouplingSplit(l, plans[rank])
		for kind := 0; kind < 3; kind++ {
			if n := len(cs.CouplingOuter[kind]); n != 0 {
				t.Errorf("rank %d kind %d: %d coupling-outer elements without coupling faces", rank, kind, n)
			}
		}
	}
}

// On a real globe every CMB/ICB-adjacent element not already on a rank
// boundary must land in CouplingOuter, and every element containing a
// coupling point must be in one of the two outer classes.
func TestCouplingSplitGlobe(t *testing.T) {
	model := earthmodel.NewHomogeneous(6371e3, earthmodel.Material{
		Rho: 5000, Vp: 10000, Vs: 5500, Qmu: 300, Qkappa: 57823,
	})
	model.ICBRadius = 1221.5e3
	model.CMBRadius = 3480e3
	g, err := meshfem.Build(meshfem.Config{NexXi: 4, NProcXi: 1, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	sawCouplingOuter := false
	for rank, l := range g.Locals {
		checkCouplingSplit(t, rank, l, g.Plans[rank])
		cs := mesh.BuildCouplingSplit(l, g.Plans[rank])
		oc := int(earthmodel.RegionOuterCore)
		if len(l.CMB)+len(l.ICB) > 0 && len(cs.HaloOuter[oc])+len(cs.CouplingOuter[oc]) == 0 {
			t.Errorf("rank %d: coupling faces but no fluid outer elements", rank)
		}
		if len(cs.CouplingOuter[oc]) > 0 {
			sawCouplingOuter = true
		}
	}
	if !sawCouplingOuter {
		t.Error("no rank produced a non-empty fluid CouplingOuter class — the globe split is vacuous")
	}
}

// On a 4-rank slab decomposition of a 4-deep box, every rank's slab is
// one element deep: every element touches a slab face, so all elements
// on every rank are outer and the outer fraction is 1.
func TestBuildOverlapThinSlabsAllOuter(t *testing.T) {
	locals, plans := buildRanks(t, 4)
	for rank, l := range locals {
		ov := mesh.BuildOverlap(l, plans[rank])
		if n := len(ov.Inner[earthmodel.RegionCrustMantle]); n != 0 {
			t.Errorf("rank %d: %d inner elements in a 1-element-deep slab", rank, n)
		}
	}
	// A 2-rank split leaves each slab 2 elements deep: still all outer
	// (each element touches the shared face plane? no — only the layer
	// at the boundary). Check the interior layer is inner.
	locals2, plans2 := buildRanks(t, 2)
	ov := mesh.BuildOverlap(locals2[0], plans2[0])
	nOuter := len(ov.Outer[earthmodel.RegionCrustMantle])
	nInner := len(ov.Inner[earthmodel.RegionCrustMantle])
	if nOuter != 16 || nInner != 16 {
		t.Errorf("2-rank slab: outer %d inner %d, want 16/16", nOuter, nInner)
	}
	if f := ov.OuterFraction(); f != 0.5 {
		t.Errorf("outer fraction %v, want 0.5", f)
	}
}
