package solver

import (
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/meshfem"
)

// The solver runs unchanged physics on a depth-doubled globe: the mesh
// carries per-layer element counts and the 6-element doubling templates,
// but the force kernels, coloring, overlap split and halo assembly see
// only Locals/Plans. Seismograms must be bit-identical across worker
// counts — the same determinism guarantee the uniform mesh has.
func TestDoubledGlobeWorkersBitIdentical(t *testing.T) {
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
	srcLoc, err := g.LocateLatLonDepth(0, 0, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	rloc, err := g.LocateLatLonDepth(20, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Seismogram {
		const m0 = 1e20
		res, err := Run(&Simulation{
			Locals: g.Locals, Plans: g.Plans, Model: model,
			Sources: []Source{{
				Rank: srcLoc.Rank, Kind: srcLoc.Kind, Elem: srcLoc.Elem, Ref: srcLoc.Ref,
				MomentTensor: [3][3]float64{{m0, 0, 0}, {0, m0, 0}, {0, 0, m0}},
				STF:          GaussianSTF(10, 25),
			}},
			Receivers: []Receiver{{Name: "R", Rank: rloc.Rank, Kind: rloc.Kind, Elem: rloc.Elem, Ref: rloc.Ref}},
			Opts:      Options{Steps: 20, Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seismograms["R"]
	}
	t.Run(schedule, func(t *testing.T) {
		identical(t, "doubled globe", run(1), run(4))
	})
}

// A multi-slice doubled globe must run end to end: the halo exchanges
// cross doubling-template faces between ranks.
func TestDoubledGlobeMultiRank(t *testing.T) {
	model := earthmodel.NewHomogeneous(6371e3, earthmodel.Material{
		Rho: 5000, Vp: 10000, Vs: 5500, Qmu: 300, Qkappa: 57823,
	})
	model.ICBRadius = 1221.5e3
	model.CMBRadius = 3480e3
	g, err := meshfem.Build(meshfem.Config{
		NexXi: 8, NProcXi: 2, Model: model,
		Doublings: []float64{5200e3},
	})
	if err != nil {
		t.Fatal(err)
	}
	srcLoc, err := g.LocateLatLonDepth(0, 0, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	rloc, err := g.LocateLatLonDepth(-15, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	const m0 = 1e20
	res, err := Run(&Simulation{
		Locals: g.Locals, Plans: g.Plans, Model: model,
		Sources: []Source{{
			Rank: srcLoc.Rank, Kind: srcLoc.Kind, Elem: srcLoc.Elem, Ref: srcLoc.Ref,
			MomentTensor: [3][3]float64{{m0, 0, 0}, {0, m0, 0}, {0, 0, m0}},
			STF:          GaussianSTF(10, 25),
		}},
		Receivers: []Receiver{{Name: "R", Rank: rloc.Rank, Kind: rloc.Kind, Elem: rloc.Elem, Ref: rloc.Ref}},
		Opts:      Options{Steps: 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sg := res.Seismograms["R"]; maxAbs(sg.X)+maxAbs(sg.Y)+maxAbs(sg.Z) == 0 {
		t.Fatal("no signal recorded on the doubled multi-rank globe")
	}
}
