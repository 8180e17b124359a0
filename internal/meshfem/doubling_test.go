package meshfem

import (
	"math"
	"testing"

	"specglobe/internal/cubedsphere"
	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

// Doubling radii for the test model (surface 6371 km, CMB 3480 km, ICB
// 1221.5 km): one mid-mantle doubling and one in the outer core, so the
// mesh runs fine -> /2 -> /4 from crust to central cube.
var testDoublings = []float64{5200e3, 3000e3}

func buildDoubled(t *testing.T, nex, nproc int, doublings []float64) *Globe {
	t.Helper()
	g, err := Build(Config{NexXi: nex, NProcXi: nproc, Model: testModel(), Doublings: doublings})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDoublingValidation(t *testing.T) {
	model := testModel()
	// nex=4, nproc=1: per-slice 4 is divisible by 4, but the second
	// doubling level (nex=2) is not.
	if _, err := Build(Config{NexXi: 4, NProcXi: 1, Model: model, Doublings: testDoublings}); err == nil {
		t.Error("two doublings at NEX 4 accepted (second level has per-slice 2)")
	}
	// nex=8, nproc=2: per-slice 4 allows one doubling, not two.
	if _, err := Build(Config{NexXi: 8, NProcXi: 2, Model: model, Doublings: testDoublings}); err == nil {
		t.Error("two doublings at NEX 8 / NPROC 2 accepted")
	}
	if _, err := Build(Config{NexXi: 8, NProcXi: 1, Model: model, Doublings: []float64{5200e3, 5200e3}}); err == nil {
		t.Error("duplicate doubling radius accepted")
	}
	if _, err := Build(Config{NexXi: 8, NProcXi: 1, Model: model, Doublings: []float64{7000e3}}); err == nil {
		t.Error("doubling radius above the surface accepted")
	}
	// A doubling radius exactly at a region boundary leaves no room for
	// the transition inside the region below-adjacent band.
	if _, err := Build(Config{NexXi: 8, NProcXi: 1, Model: model, Doublings: []float64{3480e3}}); err == nil {
		t.Error("doubling radius on the CMB accepted")
	}
	// A radius inside the central cube (~610 km for CubeFrac 0.5) falls
	// in no region and must be rejected, not silently ignored.
	if _, err := Build(Config{NexXi: 8, NProcXi: 1, Model: model, Doublings: []float64{300e3}}); err == nil {
		t.Error("doubling radius inside the central cube accepted")
	}
	// A model discontinuity inside the doubling stages cannot snap to an
	// element boundary; the build must refuse rather than smear it (PREM
	// has its 670-km discontinuity at radius 5701 km, inside the bands
	// of a doubling at 5850 km).
	if _, err := Build(Config{NexXi: 8, NProcXi: 1, Model: earthmodel.NewPREM(), Doublings: []float64{5850e3}}); err == nil {
		t.Error("doubling layers across a PREM discontinuity accepted")
	}
}

// The doubled mesh must carry strictly fewer elements than the uniform
// mesh at the same surface resolution, be structurally valid, and keep
// its discrete volume on the analytic ball volume (any gap or overlap in
// the doubling templates would show up here immediately).
func TestDoublingVolumeAndElementCount(t *testing.T) {
	model := testModel()
	uni := buildSmall(t, 8, 1, model)
	dbl := buildDoubled(t, 8, 1, testDoublings)
	if du, dd := uni.TotalElements(), dbl.TotalElements(); dd >= du {
		t.Errorf("doubling did not reduce elements: %d uniform vs %d doubled", du, dd)
	}
	vol := 0.0
	for _, l := range dbl.Locals {
		for _, r := range l.Regions {
			if err := r.Finish(); err != nil {
				t.Fatal(err)
			}
			vol += r.Volume()
		}
	}
	R := model.SurfaceRadius()
	want := 4.0 / 3.0 * math.Pi * R * R * R
	if relErr := math.Abs(vol-want) / want; relErr > 0.03 {
		t.Errorf("doubled-mesh volume %g vs analytic %g (rel err %.4f)", vol, want, relErr)
	}
	// Region volumes must still partition correctly (the outer core is
	// meshed at half resolution with a doubling inside).
	var vols [3]float64
	for _, l := range dbl.Locals {
		for kind, r := range l.Regions {
			vols[kind] += r.Volume()
		}
	}
	icb, cmb, surf := model.ICB(), model.CMB(), model.SurfaceRadius()
	wants := [3]float64{
		sphericalShellVolume(cmb, surf),
		sphericalShellVolume(icb, cmb),
		sphericalShellVolume(0, icb),
	}
	for kind, got := range vols {
		if relErr := math.Abs(got-wants[kind]) / wants[kind]; relErr > 0.05 {
			t.Errorf("region %v volume %g vs %g (rel err %.4f)",
				earthmodel.Region(kind), got, wants[kind], relErr)
		}
	}
}

// Every GLL point on a doubling interface must resolve to exactly one
// global id: the set of point ids on the fine side's bottom faces equals
// the set on the template layer's top faces, and the number of distinct
// points matches the closed-form count of a conforming spherical grid
// (6*m^2 + 2 with m = nex*(NGLL-1) across the six chunks; per rank at
// NPROC_XI=1, one chunk face: (m+1)^2).
func TestDoublingInterfaceConformity(t *testing.T) {
	g := buildDoubled(t, 8, 1, testDoublings)
	for si := range g.specs {
		sp := &g.specs[si]
		for li, l := range sp.layers {
			if l.kind != layerDoubleXi {
				continue
			}
			// The layer above the xi-doubling layer is uniform at the
			// fine resolution (the planner always emits fine band ->
			// doubleXi -> doubleEta -> coarse band).
			if li+1 >= len(sp.layers) || sp.layers[li+1].kind != layerUniform {
				t.Fatalf("region %v: no uniform layer above doubleXi layer %d", sp.kind, li)
			}
			for rank, local := range g.Locals {
				reg := local.Regions[sp.kind]
				top := map[int32]bool{}  // template layer top-face points
				fine := map[int32]bool{} // fine layer bottom-face points
				facePoints := func(e, k int, into map[int32]bool) {
					for j := 0; j < mesh.NGLL; j++ {
						for i := 0; i < mesh.NGLL; i++ {
							into[reg.Ibool[mesh.Idx(e, i, j, k)]] = true
						}
					}
				}
				for e := g.layerBase[si][li]; e < g.layerBase[si][li]+g.layerCount[si][li]; e++ {
					facePoints(e, mesh.NGLL-1, top)
				}
				for e := g.layerBase[si][li+1]; e < g.layerBase[si][li+1]+g.layerCount[si][li+1]; e++ {
					facePoints(e, 0, fine)
				}
				// Not every template top point lies on the interface
				// (quads 2 and 4 top out at interior nodes below r1), so
				// compare fine against top: every fine bottom point must
				// be indexed by a template element, through the same id.
				for id := range fine {
					if !top[id] {
						t.Fatalf("rank %d region %v layer %d: fine-side point %d not shared with the doubling template",
							rank, sp.kind, li, id)
					}
				}
				m := l.nexXi / g.Cfg.NProcXi * (mesh.NGLL - 1)
				if want := (m + 1) * (m + 1); len(fine) != want {
					t.Errorf("rank %d region %v layer %d: %d distinct interface points, want %d",
						rank, sp.kind, li, len(fine), want)
				}
			}
		}
	}
}

// BuildColoring must stay conflict-free on doubled meshes: no two
// elements of one color may share a global point, including across the
// template elements whose neighbor counts differ from a uniform mesh.
func TestDoublingColoringConflictFree(t *testing.T) {
	g := buildDoubled(t, 8, 1, testDoublings)
	for _, l := range g.Locals {
		c := mesh.BuildColoring(l)
		for kind := 0; kind < 3; kind++ {
			reg := l.Regions[kind]
			if reg == nil || reg.NSpec == 0 {
				continue
			}
			owner := make([]int32, reg.NGlob)
			for _, class := range c.Classes(kind, nil) {
				for i := range owner {
					owner[i] = -1
				}
				for _, e := range class {
					for _, gp := range reg.Ibool[int(e)*mesh.NGLL3 : (int(e)+1)*mesh.NGLL3] {
						if owner[gp] >= 0 && owner[gp] != e {
							t.Fatalf("rank %d region %d: elements %d and %d share point %d within one color",
								l.Rank, kind, owner[gp], e, gp)
						}
						owner[gp] = e
					}
				}
			}
		}
	}
}

// Halo plans across a multi-slice decomposition of a doubled mesh must
// stay symmetric and coordinate-exact (the cross-rank face of a doubling
// template is walked in opposite directions by the two ranks, which the
// symmetric interpolation must absorb).
func TestDoublingHaloSymmetry(t *testing.T) {
	g := buildDoubled(t, 8, 2, testDoublings[:1])
	for _, p := range g.Plans {
		if p.BoundaryPoints() == 0 {
			t.Errorf("rank %d has no boundary points", p.Rank)
		}
		for kind, edges := range p.Edges {
			for _, e := range edges {
				peer := g.Plans[e.Peer]
				var back *mesh.HaloEdge
				for i := range peer.Edges[kind] {
					if peer.Edges[kind][i].Peer == p.Rank {
						back = &peer.Edges[kind][i]
						break
					}
				}
				if back == nil {
					t.Fatalf("rank %d region %d: peer %d has no back edge", p.Rank, kind, e.Peer)
				}
				if len(back.Idx) != len(e.Idx) {
					t.Fatalf("rank %d region %d peer %d: %d vs %d shared points",
						p.Rank, kind, e.Peer, len(e.Idx), len(back.Idx))
				}
				ra := g.Locals[p.Rank].Regions[kind]
				rb := g.Locals[e.Peer].Regions[kind]
				for i := range e.Idx {
					if ra.Pts[e.Idx[i]] != rb.Pts[back.Idx[i]] {
						t.Fatalf("rank %d<->%d region %d point %d coordinates differ",
							p.Rank, e.Peer, kind, i)
					}
				}
			}
		}
	}
}

// Coupling faces on a doubled mesh pair coincident points even though
// the CMB and ICB sit at different lateral resolutions, and their
// assembled area still matches the analytic spheres.
func TestDoublingCouplingFaces(t *testing.T) {
	model := testModel()
	g := buildDoubled(t, 8, 1, testDoublings)
	cmbArea, icbArea := 0.0, 0.0
	for _, l := range g.Locals {
		oc := l.Regions[earthmodel.RegionOuterCore]
		if len(l.CMB) == 0 || len(l.ICB) == 0 {
			t.Fatalf("rank %d: missing coupling faces", l.Rank)
		}
		for _, cf := range l.CMB {
			solid := l.Regions[cf.SolidKind]
			for q := 0; q < mesh.NGLL2; q++ {
				if solid.Pts[cf.SolidPt[q]] != oc.Pts[cf.FluidPt[q]] {
					t.Fatalf("rank %d: CMB face points do not coincide", l.Rank)
				}
				cmbArea += float64(cf.Weight[q])
			}
		}
		for _, cf := range l.ICB {
			solid := l.Regions[cf.SolidKind]
			for q := 0; q < mesh.NGLL2; q++ {
				if solid.Pts[cf.SolidPt[q]] != oc.Pts[cf.FluidPt[q]] {
					t.Fatalf("rank %d: ICB face points do not coincide", l.Rank)
				}
				icbArea += float64(cf.Weight[q])
			}
		}
	}
	for _, c := range []struct {
		name string
		got  float64
		r    float64
	}{{"CMB", cmbArea, model.CMB()}, {"ICB", icbArea, model.ICB()}} {
		want := 4 * math.Pi * c.r * c.r
		if relErr := math.Abs(c.got-want) / want; relErr > 0.02 {
			t.Errorf("%s area %g vs %g (rel err %.4f)", c.name, c.got, want, relErr)
		}
	}
}

// Locate must resolve positions in uniform bands at every level and
// inside the doubling layers themselves.
func TestDoublingLocateRoundTrip(t *testing.T) {
	model := testModel()
	g := buildDoubled(t, 8, 1, testDoublings)
	surf := model.SurfaceRadius()
	cases := []struct {
		lat, lon, r float64
		tolM        float64
	}{
		{0, 0, surf - 120e3, 60}, // fine crust
		{45, 45, 5600e3, 60},     // fine mantle band
		{-30, -70, 5000e3, 400},  // inside the mantle doubling layers
		{10, 120, 4200e3, 200},   // coarse mantle band
		{-60, 30, 3100e3, 1200},  // inside the outer-core doubling layers
		{20, -100, 2000e3, 800},  // coarse outer core
		{5, 5, 1100e3, 1200},     // inner-core shell at quarter resolution
	}
	for _, c := range cases {
		loc, err := g.Locate(cubedsphere.LatLon(c.lat, c.lon), c.r)
		if err != nil {
			t.Fatalf("locate (%v,%v,r=%v): %v", c.lat, c.lon, c.r, err)
		}
		got, err := g.PointAt(loc)
		if err != nil {
			t.Fatal(err)
		}
		want := cubedsphere.LatLon(c.lat, c.lon).Scale(c.r)
		if e := got.Sub(want).Norm(); e > c.tolM {
			t.Errorf("locate (%v,%v,r=%v): error %.3g m (tol %g)", c.lat, c.lon, c.r, e, c.tolM)
		}
	}
}

// The shortest-period estimate must not degrade when doubling keeps the
// surface resolution: the surface governs the period, and the doubled
// mesh keeps the same surface grid.
func TestDoublingShortestPeriod(t *testing.T) {
	uni := buildSmall(t, 8, 1, testModel())
	dbl := buildDoubled(t, 8, 1, testDoublings)
	if dbl.ShortestPeriod > 1.8*uni.ShortestPeriod {
		t.Errorf("doubled-mesh period %.1fs much worse than uniform %.1fs",
			dbl.ShortestPeriod, uni.ShortestPeriod)
	}
}

// doublingPerNode is the per-node doubling table the memoised one
// replaced: one gnomonic evaluation per node and the Jacobian columns
// as Vec3 chains, the oracle of TestDoublingTablesMatchPerNode.
func doublingPerNode(face cubedsphere.Face, q *quad2, e0, e1 float64, alongXi bool) *elemNodes {
	t := new(elemNodes)
	for ir := 0; ir < mesh.NGLL; ir++ {
		for il := 0; il < mesh.NGLL; il++ {
			l, r := q.at(il, ir)
			ls, lt, rs, rt := q.deriv(gllS[il], gllS[ir])
			for ie := 0; ie < mesh.NGLL; ie++ {
				e := symLerp(e0, e1, ie)
				a, b, n := l, e, il+mesh.NGLL*ie+mesh.NGLL2*ir
				if !alongXi {
					a, b, n = e, l, ie+mesh.NGLL*il+mesh.NGLL2*ir
				}
				ax, ay, az, bx, by, bz, dx, dy, dz := cubedsphere.TanDerivs(face, a, b)
				dda, ddb, dir := cubedsphere.Vec3{ax, ay, az}, cubedsphere.Vec3{bx, by, bz}, cubedsphere.Vec3{dx, dy, dz}
				dl, de := dda, ddb
				if !alongXi {
					dl, de = ddb, dda
				}
				t.Pos[n] = dir.Scale(r)
				lateral := dl.Scale(ls * r).Add(dir.Scale(rs)).Scale(0.5)
				extrusion := de.Scale((e1 - e0) * r / 2)
				t.cols[n] = [3]cubedsphere.Vec3{lateral, extrusion, dl.Scale(lt * r).Add(dir.Scale(rt)).Scale(0.5)}
				if !alongXi {
					t.cols[n][0], t.cols[n][1] = extrusion, lateral
				}
			}
		}
	}
	return t
}

// Each doubling hex's table, which evaluates the gnomonic map once per
// node line on the vertical quads, must equal the per-node evaluation
// bit for bit: every quad of a template, both doubling directions,
// every face, on a chunk edge and inside.
func TestDoublingTablesMatchPerNode(t *testing.T) {
	g := cubedsphere.TanGrid(8)
	const r0, r1 = 5000e3, 5200e3
	for _, fine := range [][5]float64{[5]float64(g[0:5]), [5]float64(g[2:7]), [5]float64(g[4:9])} {
		quads := dblTemplate(fine, r0, r1)
		for qi := range quads {
			q := &quads[qi]
			if want := qi != 1 && qi != 3; q.vertical() != want {
				t.Fatalf("template quad %d: vertical() = %v, want %v", qi+1, q.vertical(), want)
			}
			for face := cubedsphere.Face(0); face < cubedsphere.NumFaces; face++ {
				for _, alongXi := range []bool{true, false} {
					for _, ext := range [][2]float64{{g[0], g[1]}, {g[3], g[4]}} {
						var got elemNodes
						got.doubling(face, q, ext[0], ext[1], alongXi)
						want := doublingPerNode(face, q, ext[0], ext[1], alongXi)
						for n := range got.Pos {
							same := math.Float64bits(got.Pos[n][0]) == math.Float64bits(want.Pos[n][0]) &&
								math.Float64bits(got.Pos[n][1]) == math.Float64bits(want.Pos[n][1]) &&
								math.Float64bits(got.Pos[n][2]) == math.Float64bits(want.Pos[n][2])
							for c := range got.cols[n] {
								for i := range got.cols[n][c] {
									same = same && math.Float64bits(got.cols[n][c][i]) == math.Float64bits(want.cols[n][c][i])
								}
							}
							if !same {
								t.Fatalf("quad %d face %v alongXi %v extrusion %v node %d: pos %v cols %v, per node %v %v",
									qi+1, face, alongXi, ext, n, got.Pos[n], got.cols[n], want.Pos[n], want.cols[n])
							}
						}
					}
				}
			}
		}
	}
}
