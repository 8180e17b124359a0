package mesh_test

import (
	"testing"

	"specglobe/internal/boxmesh"
	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
)

var clusterMat = earthmodel.Material{Rho: 2700, Vp: 8000, Vs: 4500, Qmu: 60, Qkappa: 57823}

func clusterBox(t *testing.T, n, nranks int) *boxmesh.Box {
	t.Helper()
	b, err := boxmesh.Build(boxmesh.Config{
		Nx: n, Ny: n, Nz: n,
		Lx: 40e3, Ly: 40e3, Lz: 40e3,
		NRanks: nranks,
		Mat:    clusterMat,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A uniform box at its own stable dt bins everything to rate 1; at half
// that dt everything legally doubles. The binning must never exceed the
// cap and must account for every element exactly once.
func TestBuildClustersUniformBox(t *testing.T) {
	const courant = 0.3
	b := clusterBox(t, 3, 1)
	l := b.Locals[0]
	reg := l.Regions[earthmodel.RegionCrustMantle]
	stable := reg.StableDt(courant)

	c1 := mesh.BuildClusters(l, stable, courant, 4, nil)
	if got := c1.RateCounts(); len(got) != 1 || got[1] != reg.NSpec {
		t.Fatalf("at stable dt: rate counts %v, want all %d elements at rate 1", got, reg.NSpec)
	}
	if r := c1.UpdateReduction(); r != 1 {
		t.Errorf("rate-1 UpdateReduction = %g, want 1", r)
	}

	c2 := mesh.BuildClusters(l, stable/2.1, courant, 4, nil)
	got := c2.RateCounts()
	if got[2] != reg.NSpec {
		t.Fatalf("at half dt: rate counts %v, want all %d elements at rate 2", got, reg.NSpec)
	}
	if r := c2.UpdateReduction(); r != 2 {
		t.Errorf("uniform rate-2 UpdateReduction = %g, want 2", r)
	}

	// The cap clamps: a tiny dt cannot push rates past MaxRate.
	c3 := mesh.BuildClusters(l, stable/100, courant, 4, nil)
	for r := range c3.RateCounts() {
		if r > 4 {
			t.Errorf("rate %d exceeds MaxRate 4", r)
		}
	}
}

// Point rates follow the max rule: every point's rate is the maximum
// over the rates of the elements touching it; at half the stable dt
// with cap 2 the region is one rate-2 cluster of every element.
func TestClusterPointRateMaxRule(t *testing.T) {
	const courant = 0.3
	b := clusterBox(t, 3, 1)
	l := b.Locals[0]
	kind := int(earthmodel.RegionCrustMantle)
	reg := l.Regions[kind]
	c := mesh.BuildClusters(l, reg.StableDt(courant)/2.1, courant, 2, nil)
	pr := c.PointRate[kind]
	rates := c.ElemRate[kind]
	for e := 0; e < reg.NSpec; e++ {
		for p := e * mesh.NGLL3; p < (e+1)*mesh.NGLL3; p++ {
			if pr[reg.Ibool[p]] < rates[e] {
				t.Fatalf("point rate %d below touching element rate %d", pr[reg.Ibool[p]], rates[e])
			}
		}
	}
	if cls := c.Clusters[kind]; len(cls) != 1 || cls[0].Rate != 2 || len(cls[0].Elems) != reg.NSpec {
		t.Errorf("clusters %v, want one rate-2 cluster of all %d elements", c.RateCounts(), reg.NSpec)
	}
}

// Clusters compose with the overlap split: each cluster's outer/inner
// lists partition its elements the same way the region-wide split does.
func TestClustersComposeWithOverlap(t *testing.T) {
	const courant = 0.3
	b := clusterBox(t, 4, 2)
	l := b.Locals[0]
	plan := b.Plans[0]
	ov := mesh.BuildOverlap(l, plan)
	kind := int(earthmodel.RegionCrustMantle)
	reg := l.Regions[kind]
	c := mesh.BuildClusters(l, reg.StableDt(courant)/2.1, courant, 2, ov)
	for _, cl := range c.Clusters[kind] {
		if cl.Outer == nil || cl.Inner == nil {
			t.Fatalf("rate-%d cluster missing overlap split", cl.Rate)
		}
		if len(cl.Outer)+len(cl.Inner) != len(cl.Elems) {
			t.Errorf("rate-%d cluster: outer %d + inner %d != elems %d",
				cl.Rate, len(cl.Outer), len(cl.Inner), len(cl.Elems))
		}
	}
}

// On the depth-doubled globe the per-element dt spectrum spreads across
// the doubling levels and the clustering becomes genuinely multi-rate:
// more than one rate and a theoretical update reduction strictly above 1.
func TestDoubledGlobeMultiRateClustering(t *testing.T) {
	model := earthmodel.NewHomogeneous(6371e3, earthmodel.Material{
		Rho: 5000, Vp: 10000, Vs: 5500, Qmu: 300, Qkappa: 57823,
	})
	model.ICBRadius = 1221.5e3
	model.CMBRadius = 3480e3
	g, err := meshfem.Build(meshfem.Config{
		NexXi: 8, NProcXi: 1, Model: model,
		Doublings: []float64{5200e3, 3000e3},
	})
	if err != nil {
		t.Fatal(err)
	}
	const courant = 0.3
	dt := mesh.StableDt(g.Locals, courant)
	counts := map[int32]int{}
	red := 0.0
	for _, l := range g.Locals {
		c := mesh.BuildClusters(l, dt, courant, 4, nil)
		for r, n := range c.RateCounts() {
			counts[r] += n
		}
		if r := c.UpdateReduction(); r > red {
			red = r
		}
	}
	t.Logf("doubled globe rate counts: %v, best per-rank reduction %.2f", counts, red)
	if len(counts) < 2 {
		t.Fatalf("doubled globe clustering is single-rate: %v", counts)
	}
	if red <= 1 {
		t.Fatalf("UpdateReduction %.3f, want > 1", red)
	}
}
