package meshfem

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"specglobe/internal/cubedsphere"
	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

func testModel() earthmodel.Model {
	// Homogeneous ball with a fluid shell: exercises all three regions
	// and both coupling boundaries but with uniform materials.
	h := earthmodel.NewHomogeneous(6371e3, earthmodel.Material{
		Rho: 5000, Vp: 10000, Vs: 5500, Qmu: 300, Qkappa: 57823,
	})
	h.ICBRadius = 1221.5e3
	h.CMBRadius = 3480e3
	return h
}

func buildSmall(t *testing.T, nex, nproc int, model earthmodel.Model) *Globe {
	t.Helper()
	g, err := Build(Config{NexXi: nex, NProcXi: nproc, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildValidations(t *testing.T) {
	if _, err := Build(Config{NexXi: 4, NProcXi: 1}); err == nil {
		t.Error("missing model accepted")
	}
	if _, err := Build(Config{NexXi: 5, NProcXi: 1, Model: testModel()}); err == nil {
		t.Error("odd NEX accepted")
	}
	if _, err := Build(Config{NexXi: 4, NProcXi: 1, Model: testModel(), CubeFrac: 0.95}); err == nil {
		t.Error("CubeFrac 0.95 accepted")
	}
	// NaN passes a pair of "outside the range" comparisons; it must be
	// refused up front, not by a NaN Jacobian after every rank is meshed.
	if _, err := Build(Config{NexXi: 4, NProcXi: 1, Model: testModel(), CubeFrac: math.NaN()}); err == nil || !strings.Contains(err.Error(), "CubeFrac") {
		t.Errorf("CubeFrac NaN: error %v, want the CubeFrac range error", err)
	}
}

func TestGlobeStructure(t *testing.T) {
	g := buildSmall(t, 4, 1, testModel())
	if len(g.Locals) != 6 {
		t.Fatalf("expected 6 ranks, got %d", len(g.Locals))
	}
	for rank, l := range g.Locals {
		if l.Rank != rank {
			t.Errorf("rank %d mislabeled %d", rank, l.Rank)
		}
		for kind := 0; kind < 3; kind++ {
			r := l.Regions[kind]
			if r == nil {
				t.Fatalf("rank %d: nil region %d", rank, kind)
			}
			if r.NSpec == 0 {
				t.Errorf("rank %d: empty region %v on an Earth-like model", rank, earthmodel.Region(kind))
			}
			if err := r.Finish(); err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
		}
		if len(l.CMB) == 0 || len(l.ICB) == 0 {
			t.Errorf("rank %d: missing coupling faces (CMB %d, ICB %d)", rank, len(l.CMB), len(l.ICB))
		}
		if len(l.Surface.Pts) == 0 {
			t.Errorf("rank %d: no free-surface points", rank)
		}
	}
}

// The mesh volume must converge to the analytic ball volume. The
// cubed-sphere quadrature at NEX=8 is accurate to a few percent.
func TestMeshVolume(t *testing.T) {
	model := testModel()
	g := buildSmall(t, 8, 1, model)
	vol := 0.0
	for _, l := range g.Locals {
		for _, r := range l.Regions {
			vol += r.Volume()
		}
	}
	R := model.SurfaceRadius()
	want := 4.0 / 3.0 * math.Pi * R * R * R
	if relErr := math.Abs(vol-want) / want; relErr > 0.02 {
		t.Errorf("volume %g vs analytic %g (rel err %.4f)", vol, want, relErr)
	}
}

// Volume must be partitioned correctly among the regions.
func TestRegionVolumes(t *testing.T) {
	model := testModel()
	g := buildSmall(t, 8, 1, model)
	var vols [3]float64
	for _, l := range g.Locals {
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
		if relErr := math.Abs(got-wants[kind]) / wants[kind]; relErr > 0.03 {
			t.Errorf("region %v volume %g vs %g (rel err %.4f)",
				earthmodel.Region(kind), got, wants[kind], relErr)
		}
	}
}

// Load balance across ranks: the paper's mesh design results in
// "excellent load balancing"; with the cube sectoring the element-count
// imbalance should stay within ~15%.
func TestLoadBalance(t *testing.T) {
	g := buildSmall(t, 8, 2, testModel())
	stats := mesh.ComputeLoadStats(g.Locals)
	if stats.Imbalance > 1.15 {
		t.Errorf("element imbalance %.3f (min %d, max %d, mean %.1f)",
			stats.Imbalance, stats.MinElems, stats.MaxElems, stats.MeanElems)
	}
}

// Halo plans must be symmetric: if rank A lists n shared points with B,
// B must list exactly n with A, in the same key order.
func TestHaloSymmetry(t *testing.T) {
	g := buildSmall(t, 4, 2, testModel())
	for _, p := range g.Plans {
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
				// Coordinates must match pointwise in order.
				ra := g.Locals[p.Rank].Regions[kind]
				rb := g.Locals[e.Peer].Regions[kind]
				for i := range e.Idx {
					pa := ra.Pts[e.Idx[i]]
					pb := rb.Pts[back.Idx[i]]
					if pa != pb {
						t.Fatalf("rank %d<->%d region %d point %d: %v vs %v",
							p.Rank, e.Peer, kind, i, pa, pb)
					}
				}
			}
		}
	}
}

// Every rank in a multi-slice decomposition must have neighbors, and
// chunk-interior slices share with at most 8 in-chunk neighbors plus
// cube partners.
func TestHaloNeighborCounts(t *testing.T) {
	g := buildSmall(t, 4, 2, testModel())
	for _, p := range g.Plans {
		if n := p.NeighborCount(); n < 3 {
			t.Errorf("rank %d has only %d neighbors", p.Rank, n)
		}
		if p.BoundaryPoints() == 0 {
			t.Errorf("rank %d has no boundary points", p.Rank)
		}
	}
}

// Mass must be strictly positive everywhere after local assembly.
func TestMassPositive(t *testing.T) {
	g := buildSmall(t, 4, 1, testModel())
	for _, l := range g.Locals {
		for _, r := range l.Regions {
			for i, m := range r.Mass {
				if m <= 0 {
					t.Fatalf("rank %d region %v: non-positive mass at %d", l.Rank, r.Kind, i)
				}
			}
		}
	}
}

// The sum of each rank's local solid mass matrix must equal the mass of
// its solid elements, the quadrature of rho: local assembly sums element
// contributions into distinct local points, so it counts each element
// once. testModel's solid density is uniform. This checks mass
// conservation region by region.
func TestMassConservation(t *testing.T) {
	model := testModel()
	g := buildSmall(t, 8, 1, model)
	rho := model.At(model.SurfaceRadius()).Rho
	for _, l := range g.Locals {
		for _, r := range l.Regions {
			if r.IsFluid() || r.NSpec == 0 {
				continue
			}
			var massSum float64
			for _, m := range r.Mass {
				massSum += float64(m)
			}
			if elemSum := rho * r.Volume(); math.Abs(massSum-elemSum)/elemSum > 1e-5 {
				t.Errorf("rank %d region %v: mass %g vs element sum %g", l.Rank, r.Kind, massSum, elemSum)
			}
		}
	}
}

// Coupling faces must reference coincident points in both regions.
func TestCouplingFacesCoincide(t *testing.T) {
	g := buildSmall(t, 4, 1, testModel())
	for _, l := range g.Locals {
		oc := l.Regions[earthmodel.RegionOuterCore]
		for fi, cf := range l.CMB {
			solid := l.Regions[cf.SolidKind]
			for q := 0; q < mesh.NGLL2; q++ {
				ps := solid.Pts[cf.SolidPt[q]]
				pf := oc.Pts[cf.FluidPt[q]]
				if ps != pf {
					t.Fatalf("rank %d CMB face %d pt %d: solid %v fluid %v", l.Rank, fi, q, ps, pf)
				}
				// Normal must be outward radial (+r) at the CMB.
				n := cubedsphere.Vec3{float64(cf.Nx[q]), float64(cf.Ny[q]), float64(cf.Nz[q])}
				r := cubedsphere.Vec3(ps).Normalize()
				if n.Dot(r) < 0.99 {
					t.Fatalf("rank %d CMB face %d: normal %v not outward radial", l.Rank, fi, n)
				}
				if cf.Weight[q] <= 0 {
					t.Fatalf("non-positive CMB weight")
				}
			}
		}
		for fi, cf := range l.ICB {
			solid := l.Regions[cf.SolidKind]
			for q := 0; q < mesh.NGLL2; q++ {
				ps := solid.Pts[cf.SolidPt[q]]
				pf := oc.Pts[cf.FluidPt[q]]
				if ps != pf {
					t.Fatalf("rank %d ICB face %d pt %d: solid %v fluid %v", l.Rank, fi, q, ps, pf)
				}
				// Fluid outward normal at the ICB points toward the center.
				n := cubedsphere.Vec3{float64(cf.Nx[q]), float64(cf.Ny[q]), float64(cf.Nz[q])}
				r := cubedsphere.Vec3(ps).Normalize()
				if n.Dot(r) > -0.99 {
					t.Fatalf("rank %d ICB face %d: normal %v not inward radial", l.Rank, fi, n)
				}
			}
		}
	}
}

// The total CMB coupling area must match the analytic sphere area.
func TestCouplingAreaMatchesSphere(t *testing.T) {
	model := testModel()
	g := buildSmall(t, 8, 1, model)
	area := 0.0
	for _, l := range g.Locals {
		for _, cf := range l.CMB {
			for q := 0; q < mesh.NGLL2; q++ {
				area += float64(cf.Weight[q])
			}
		}
	}
	want := 4 * math.Pi * model.CMB() * model.CMB()
	if relErr := math.Abs(area-want) / want; relErr > 0.01 {
		t.Errorf("CMB area %g vs %g (rel err %.4f)", area, want, relErr)
	}
}

// The assembled free-surface area must match the sphere surface area.
func TestSurfaceArea(t *testing.T) {
	model := testModel()
	g := buildSmall(t, 8, 1, model)
	area := 0.0
	for _, l := range g.Locals {
		for _, w := range l.Surface.AreaW {
			area += float64(w)
		}
	}
	want := 4 * math.Pi * model.SurfaceRadius() * model.SurfaceRadius()
	if relErr := math.Abs(area-want) / want; relErr > 0.01 {
		t.Errorf("surface area %g vs %g (rel err %.4f)", area, want, relErr)
	}
}

// Two-pass material mode must produce exactly the same mesh, just with
// more work (the legacy redundancy of section 4.4).
func TestTwoPassProducesIdenticalMesh(t *testing.T) {
	model := testModel()
	g1 := buildSmall(t, 4, 1, model)
	g2, err := Build(Config{NexXi: 4, NProcXi: 1, Model: model, TwoPassMaterials: true})
	if err != nil {
		t.Fatal(err)
	}
	if g2.BuildPasses != 2 || g1.BuildPasses != 1 {
		t.Fatalf("pass counts %d/%d", g1.BuildPasses, g2.BuildPasses)
	}
	for rank := range g1.Locals {
		for kind := 0; kind < 3; kind++ {
			a := g1.Locals[rank].Regions[kind]
			b := g2.Locals[rank].Regions[kind]
			if !slices.Equal(a.Rho, b.Rho) || !slices.Equal(a.Kappa, b.Kappa) || !slices.Equal(a.Mu, b.Mu) {
				t.Fatalf("rank %d region %d: material differs", rank, kind)
			}
			for i := range a.Mass {
				if a.Mass[i] != b.Mass[i] {
					t.Fatalf("rank %d region %d: mass differs at %d", rank, kind, i)
				}
			}
		}
	}
}

// PREM mesh: discontinuities must be honored where the mesh affords it
// (CMB and ICB always are, as region boundaries).
func TestBuildPREM(t *testing.T) {
	g := buildSmall(t, 4, 1, earthmodel.NewPREM())
	if g.TotalElements() == 0 {
		t.Fatal("empty mesh")
	}
	// The fluid region carries fluid material everywhere (Fold refuses
	// shear there) and keeps only its density.
	for _, l := range g.Locals {
		if oc := l.Regions[earthmodel.RegionOuterCore]; oc.Mu != nil || len(oc.Rho) != oc.NSpec*mesh.NGLL3 {
			t.Fatal("outer core keeps a shear modulus or lacks its density")
		}
	}
	// Shortest period estimate must scale roughly as 1/NEX.
	g2 := buildSmall(t, 8, 1, earthmodel.NewPREM())
	ratio := g.ShortestPeriod / g2.ShortestPeriod
	if ratio < 1.5 || ratio > 3.0 {
		t.Errorf("period ratio NEX4/NEX8 = %.2f, want ~2", ratio)
	}
}

func TestStableDtPositive(t *testing.T) {
	g := buildSmall(t, 4, 1, testModel())
	dt := mesh.StableDt(g.Locals, 0.4)
	if dt <= 0 || math.IsInf(dt, 0) || math.IsNaN(dt) {
		t.Fatalf("bad dt %v", dt)
	}
	// Must scale like 1/NEX (refinement halves the step).
	g2 := buildSmall(t, 8, 1, testModel())
	r := dt / mesh.StableDt(g2.Locals, 0.4)
	if r < 1.4 || r > 3.0 {
		t.Errorf("dt ratio NEX4/NEX8 = %.2f, want ~2", r)
	}
}

func TestPaperResolutionFormula(t *testing.T) {
	// Figure 5 caption: Resolution = 256*17 / Wave Period.
	if p := PaperResolutionPeriod(256); math.Abs(p-17) > 1e-12 {
		t.Errorf("NEX 256 -> %.2f s, want 17", p)
	}
	// Breaking the 2-second barrier needs NEX ~ 2176.
	if p := PaperResolutionPeriod(2176); math.Abs(p-2) > 1e-12 {
		t.Errorf("NEX 2176 -> %.2f s, want 2", p)
	}
}

func TestLocateShellRoundTrip(t *testing.T) {
	model := testModel()
	g := buildSmall(t, 8, 1, model)
	cases := []struct {
		lat, lon, depth float64
	}{
		{0, 0, 10e3},
		{45, 45, 500e3},
		{-30, -70, 100e3},
		{80, 170, 2000e3},
		{-60, 120, 4000e3}, // outer core
		{10, -10, 5300e3},  // inner-core shell
	}
	for _, c := range cases {
		loc, err := g.LocateLatLonDepth(c.lat, c.lon, c.depth)
		if err != nil {
			t.Fatalf("locate (%v,%v,%v): %v", c.lat, c.lon, c.depth, err)
		}
		got, err := g.PointAt(loc)
		if err != nil {
			t.Fatal(err)
		}
		want := cubedsphere.LatLon(c.lat, c.lon).Scale(model.SurfaceRadius() - c.depth)
		// Tolerance: the SEM element geometry is the degree-4 Lagrange
		// interpolant of the curved mapping, accurate to ~1e-5 relative
		// at NEX=8; allow 50 m on Earth scale.
		if got.Sub(want).Norm() > 50.0 {
			t.Errorf("locate (%v,%v,%v): interpolated %v want %v (err %.3g m)",
				c.lat, c.lon, c.depth, got, want, got.Sub(want).Norm())
		}
		if loc.Rank < 0 || loc.Rank >= len(g.Locals) {
			t.Errorf("bad rank %d", loc.Rank)
		}
	}
}

func TestLocateCentralCube(t *testing.T) {
	model := testModel()
	g := buildSmall(t, 8, 1, model)
	for _, c := range []struct {
		lat, lon, r float64
	}{
		{0, 0, 100e3},
		{30, 60, 400e3},
		{-45, -120, 550e3},
	} {
		loc, err := g.Locate(cubedsphere.LatLon(c.lat, c.lon), c.r)
		if err != nil {
			t.Fatalf("cube locate: %v", err)
		}
		got, err := g.PointAt(loc)
		if err != nil {
			t.Fatal(err)
		}
		want := cubedsphere.LatLon(c.lat, c.lon).Scale(c.r)
		// The spherified-cube blend has a max-norm kink inside
		// elements, so its polynomial interpolant is less accurate;
		// a wrong cell would be off by the ~100 km cell size.
		if got.Sub(want).Norm() > 1000 {
			t.Errorf("cube locate (%v,%v,r=%v): %v want %v (err %.3g m)",
				c.lat, c.lon, c.r, got, want, got.Sub(want).Norm())
		}
	}
}

func TestLocateErrors(t *testing.T) {
	g := buildSmall(t, 4, 1, testModel())
	if _, err := g.Locate(cubedsphere.Vec3{}, 1e6); err == nil {
		t.Error("zero direction accepted")
	}
	if _, err := g.Locate(cubedsphere.Vec3{1, 0, 0}, -5); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := g.Locate(cubedsphere.Vec3{1, 0, 0}, 1e9); err == nil {
		t.Error("radius above surface accepted")
	}
}

func BenchmarkMesherSinglePass(b *testing.B) {
	model := testModel()
	for i := 0; i < b.N; i++ {
		if _, err := Build(Config{NexXi: 4, NProcXi: 1, Model: model}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMesherTwoPass reproduces the section 4.4 finding: the legacy
// double-run mesher costs about 2x the merged single-pass version.
func BenchmarkMesherTwoPass(b *testing.B) {
	model := testModel()
	for i := 0; i < b.N; i++ {
		if _, err := Build(Config{NexXi: 4, NProcXi: 1, Model: model, TwoPassMaterials: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild prices a cold mesh build on each shape of specbench's
// mesh_setup workload (earthlike NEX 4 on 6 and on 24 ranks, doubled
// PREM NEX 8), one sub-benchmark per shape so a mesher change is
// attributed per shape: us/element is the shape's cost per spectral
// element, specbench's meshfem.us_per_element without the session
// around it.
func BenchmarkBuild(b *testing.B) {
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"earthlike_nex4_6ranks", Config{NexXi: 4, NProcXi: 1, Model: testModel()}},
		{"prem_nex8_doubled", Config{NexXi: 8, NProcXi: 1, Model: earthmodel.NewPREM(), Doublings: []float64{5200e3, 3000e3}}},
		{"earthlike_nex4_24ranks", Config{NexXi: 4, NProcXi: 2, Model: testModel()}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			elements := 0
			for b.Loop() {
				g, err := Build(sh.cfg)
				if err != nil {
					b.Fatal(err)
				}
				elements = g.TotalElements()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*elements), "us/element")
		})
	}
}

// BenchmarkBuildNex prices a cold build of one earthlike globe per
// resolution (6 ranks, no doubling): us/element from NEX 4 to NEX 16
// says whether the mesher's cost per element stays flat as the mesh
// grows 16-fold.
func BenchmarkBuildNex(b *testing.B) {
	for _, nex := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("nex%d", nex), func(b *testing.B) {
			b.ReportAllocs()
			elements := 0
			for i := 0; i < b.N; i++ {
				g, err := Build(Config{NexXi: nex, NProcXi: 1, Model: testModel()})
				if err != nil {
					b.Fatal(err)
				}
				elements = g.TotalElements()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*elements), "us/element")
		})
	}
}

// Every region's point count is known before its first element: the
// shell lattice's size for the shell layers, plus the central-cube nodes
// the shell does not hold. Pts is allocated once, at that length, and no
// region keeps spare capacity alive.
func TestRegionPointCountsExact(t *testing.T) {
	for _, c := range meshBitsConfigs() {
		g, err := Build(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, l := range g.Locals {
			for si, sp := range g.specs {
				reg := l.Regions[sp.kind]
				want := g.shell[si].points
				if sp.withCube {
					want += cubeOnlyPoints(g, l.Rank)
				}
				if reg.NGlob != want {
					t.Errorf("%s rank %d %v: %d points, layer specs and cube cells predict %d",
						c.name, l.Rank, sp.kind, reg.NGlob, want)
				}
				if cap(reg.Pts) != len(reg.Pts) {
					t.Errorf("%s rank %d %v: Pts keeps %d spare slots", c.name, l.Rank, sp.kind, cap(reg.Pts)-len(reg.Pts))
				}
			}
		}
	}
}

// cubeOnlyPoints counts the distinct GLL nodes of rank's central-cube
// cells that its shell does not hold: every node but those on the face
// of the rank's chunk (q·n = D in the cube's centred node coordinates q)
// inside the rank's slice.
func cubeOnlyPoints(g *Globe, rank int) int {
	D := dGLL * g.cubeNex
	s, ilo, ihi, jlo, jhi := g.sliceRangeAt(rank, g.cubeNex, g.cubeNex)
	n, u, v := s.Chunk.Triad()
	dot := func(q [3]int, e cubedsphere.Vec3) int {
		return q[0]*int(e[0]) + q[1]*int(e[1]) + q[2]*int(e[2])
	}
	seen := map[[3]int]bool{}
	for _, cell := range g.cubeCells[rank] {
		for node := 0; node < mesh.NGLL3; node++ {
			ijk := [3]int{node % mesh.NGLL, node / mesh.NGLL % mesh.NGLL, node / mesh.NGLL2}
			var q [3]int
			for a := range q {
				q[a] = 2*(dGLL*cell[a]+ijk[a]) - D
			}
			xi, eta := (dot(q, u)+D)/2, (dot(q, v)+D)/2
			if dot(q, n) == D && xi >= dGLL*ilo && xi <= dGLL*ihi && eta >= dGLL*jlo && eta <= dGLL*jhi {
				continue
			}
			seen[q] = true
		}
	}
	return len(seen)
}

// A finished Globe is shared between batches by the daemon: location
// queries from several goroutines must agree with sequential ones and
// (under -race) write nothing — grid levels are all filled in Build.
func TestLocateConcurrent(t *testing.T) {
	g := buildDoubled(t, 8, 1, []float64{5200e3, 3000e3})
	type query struct{ lat, lon, depth float64 }
	var qs []query
	for i := 0; i < 64; i++ {
		qs = append(qs, query{-80 + 2.5*float64(i), -170 + 5.3*float64(i), 90e3 * float64(i)})
	}
	want := make([]Location, len(qs))
	for i, q := range qs {
		var err error
		if want[i], err = g.LocateLatLonDepth(q.lat, q.lon, q.depth); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range qs {
				got, err := g.LocateLatLonDepth(q.lat, q.lon, q.depth)
				if err != nil || got != want[i] {
					t.Errorf("query %d: concurrent %+v (%v), sequential %+v", i, got, err, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// Every region Build hands over — shells, doubling templates, central
// cube, the empty regions of a solid ball — carries its element audit,
// filled on the rank workers, so no consumer has to rescan the mesh.
func TestBuildAuditsEveryRegion(t *testing.T) {
	for _, c := range meshBitsConfigs() {
		g, err := Build(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, l := range g.Locals {
			for _, reg := range l.Regions {
				if len(reg.Audit) != reg.NSpec {
					t.Fatalf("%s rank %d %v: %d audits for %d elements", c.name, l.Rank, reg.Kind, len(reg.Audit), reg.NSpec)
				}
				for e, a := range reg.Audit {
					for _, v := range [...]float64{a.MinSpacing, a.MaxVp, a.HMax, a.VMin} {
						if !(v > 0) || math.IsInf(v, 0) {
							t.Fatalf("%s rank %d %v element %d: audit %+v", c.name, l.Rank, reg.Kind, e, a)
						}
					}
				}
			}
		}
		if dt := mesh.StableDt(g.Locals, mesh.Courant); !(dt > 0) || math.IsInf(dt, 0) {
			t.Errorf("%s: stable dt %v", c.name, dt)
		}
	}
}
