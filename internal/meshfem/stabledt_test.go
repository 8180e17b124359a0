package meshfem

import (
	"math"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

// The per-layer stable-dt profile must align row for row with the
// resolution audit, its global minimum must equal the exhaustive
// per-element audit (and sit at or above the conservative mesh-wide
// StableDt), and on a doubled mesh the coarsened deep layers must show
// real dt headroom over the governing layer.
func TestLayerStableDts(t *testing.T) {
	const courant = 0.3
	g, err := Build(Config{
		NexXi: 8, NProcXi: 1, Model: earthmodel.NewPREM(),
		Doublings: []float64{5200e3, 3000e3},
	})
	if err != nil {
		t.Fatal(err)
	}
	dts := g.LayerStableDts(courant)
	res := g.LayerResolutions(g.ShortestPeriod)
	if len(dts) != len(res) {
		t.Fatalf("%d dt rows vs %d resolution rows", len(dts), len(res))
	}
	minDt, maxDt := math.Inf(1), 0.0
	for i, ld := range dts {
		if ld.Region != res[i].Region || ld.R0 != res[i].R0 || ld.R1 != res[i].R1 ||
			ld.Doubling != res[i].Doubling || ld.Cube != res[i].Cube {
			t.Errorf("row %d: layer identity mismatch with LayerResolutions", i)
		}
		if ld.MinDt <= 0 || math.IsInf(ld.MinDt, 0) {
			t.Fatalf("row %d: bad MinDt %g", i, ld.MinDt)
		}
		if ld.MinDt < minDt {
			minDt = ld.MinDt
		}
		if ld.MinDt > maxDt {
			maxDt = ld.MinDt
		}
	}
	// The layer table's minimum must equal the exhaustive per-element
	// audit, and sit at or above the region-wide StableDt bound (which
	// pairs the global minimum spacing with the global maximum velocity,
	// possibly from different elements — conservative by construction).
	elemMin := math.Inf(1)
	for _, l := range g.Locals {
		for _, reg := range l.Regions {
			if reg == nil {
				continue
			}
			for e := 0; e < reg.NSpec; e++ {
				if dt := reg.ElementDt(e, courant); dt < elemMin {
					elemMin = dt
				}
			}
		}
	}
	if math.Abs(minDt-elemMin) > 1e-12*elemMin {
		t.Errorf("layer minimum %.9f != per-element audit minimum %.9f", minDt, elemMin)
	}
	if global := mesh.StableDt(g.Locals, courant); minDt < global-1e-12*global {
		t.Errorf("layer minimum %.9f below the conservative mesh-wide StableDt %.9f", minDt, global)
	}
	if maxDt < 2*minDt {
		t.Errorf("doubled mesh shows no 2x dt headroom: spread %.3f..%.3f", minDt, maxDt)
	}
}
