package stations

import (
	"math"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/meshfem"
)

func buildGlobe(t testing.TB, nex int) *meshfem.Globe {
	t.Helper()
	model := earthmodel.NewHomogeneous(6371e3, earthmodel.Material{
		Rho: 5000, Vp: 10000, Vs: 5500, Qmu: 300, Qkappa: 57823,
	})
	model.ICBRadius = 1221.5e3
	model.CMBRadius = 3480e3
	g, err := meshfem.Build(meshfem.Config{NexXi: nex, NProcXi: 1, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGlobalNetworkCoverage(t *testing.T) {
	net := GlobalNetwork(100)
	if len(net) != 100 {
		t.Fatalf("%d stations", len(net))
	}
	names := map[string]bool{}
	north, south := 0, 0
	for _, s := range net {
		if names[s.Name] {
			t.Fatalf("duplicate station name %s", s.Name)
		}
		names[s.Name] = true
		if s.LatDeg < -90 || s.LatDeg > 90 || s.LonDeg < -180 || s.LonDeg > 180 {
			t.Fatalf("station %s outside geographic bounds: %v %v", s.Name, s.LatDeg, s.LonDeg)
		}
		if s.LatDeg > 0 {
			north++
		} else {
			south++
		}
	}
	// Fibonacci lattice is hemisphere balanced.
	if north < 40 || south < 40 {
		t.Errorf("unbalanced network: %d north, %d south", north, south)
	}
}

func TestGlobalNetworkDegenerate(t *testing.T) {
	if n := GlobalNetwork(0); len(n) != 1 {
		t.Errorf("GlobalNetwork(0) -> %d stations, want 1", len(n))
	}
}

func TestReferenceStationsValid(t *testing.T) {
	for _, s := range ReferenceStations() {
		if s.Name == "" || s.LatDeg < -90 || s.LatDeg > 90 {
			t.Errorf("bad reference station %+v", s)
		}
	}
}

// Fast interpolated location must land on the station to sub-meter-ish
// geometry error; snapped location error is bounded by the GLL spacing.
func TestLocateFastErrors(t *testing.T) {
	g := buildGlobe(t, 8)
	for _, st := range ReferenceStations()[:4] {
		interp, err := LocateFast(g, st, false)
		if err != nil {
			t.Fatal(err)
		}
		if interp.ErrorM > 100 {
			t.Errorf("%s: interpolated location error %.1f m", st.Name, interp.ErrorM)
		}
		snap, err := LocateFast(g, st, true)
		if err != nil {
			t.Fatal(err)
		}
		// NEX=8: surface elements are ~1250 km; GLL spacing up to
		// ~430 km, so the snap error must be below half of that
		// diagonal-ish bound but far above the interpolated error.
		if snap.ErrorM > 500e3 {
			t.Errorf("%s: snapped error %.1f km too large", st.Name, snap.ErrorM/1e3)
		}
		if !snap.Snapped {
			t.Error("snap flag lost")
		}
	}
}

// The snap error must shrink roughly linearly with resolution — the
// observation that justifies nearest-point location at high resolution
// (section 4.4).
func TestSnapErrorDecreasesWithResolution(t *testing.T) {
	gCoarse := buildGlobe(t, 4)
	gFine := buildGlobe(t, 8)
	st := ReferenceStations()[:6]
	var eC, eF []Located
	for _, s := range st {
		a, err := LocateFast(gCoarse, s, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := LocateFast(gFine, s, true)
		if err != nil {
			t.Fatal(err)
		}
		eC = append(eC, a)
		eF = append(eF, b)
	}
	mC, mF := MaxLocationError(eC), MaxLocationError(eF)
	if mF >= mC {
		t.Errorf("snap error did not decrease: NEX4 %.1f km vs NEX8 %.1f km", mC/1e3, mF/1e3)
	}
}

// The legacy nonlinear algorithm must find the station to high accuracy
// (that was its point) — and agree with the fast path's element.
func TestLocateNonlinearAccuracy(t *testing.T) {
	g := buildGlobe(t, 8)
	for _, st := range ReferenceStations()[:3] {
		nl, err := LocateNonlinear(g, st)
		if err != nil {
			t.Fatal(err)
		}
		if nl.ErrorM > 10 {
			t.Errorf("%s: nonlinear residual %.2f m", st.Name, nl.ErrorM)
		}
		if nl.NewtonIt == 0 {
			t.Errorf("%s: Newton never iterated", st.Name)
		}
		fast, err := LocateFast(g, st, false)
		if err != nil {
			t.Fatal(err)
		}
		// Verify both find (essentially) the same physical point.
		d := math.Sqrt(
			(nl.Loc.Pos[0]-fast.Loc.Pos[0])*(nl.Loc.Pos[0]-fast.Loc.Pos[0]) +
				(nl.Loc.Pos[1]-fast.Loc.Pos[1])*(nl.Loc.Pos[1]-fast.Loc.Pos[1]) +
				(nl.Loc.Pos[2]-fast.Loc.Pos[2])*(nl.Loc.Pos[2]-fast.Loc.Pos[2]))
		if d > 1 {
			t.Errorf("%s: fast and nonlinear disagree by %.2f m", st.Name, d)
		}
	}
}

func TestToReceivers(t *testing.T) {
	g := buildGlobe(t, 8)
	sts := ReferenceStations()[:3]
	var located []Located
	for _, s := range sts {
		l, err := LocateFast(g, s, s.Name == "HRV")
		if err != nil {
			t.Fatal(err)
		}
		located = append(located, l)
	}
	recvs := ToReceivers(located)
	if len(recvs) != 3 {
		t.Fatalf("%d receivers", len(recvs))
	}
	for i, r := range recvs {
		if r.Name != sts[i].Name || r.Ref != located[i].Loc.Ref || r.Elem != located[i].Loc.Elem {
			t.Errorf("receiver %d: %+v from %+v", i, r, located[i].Loc)
		}
	}
	// The snapped station records at a GLL node: its Ref is one.
	if recvs[1].Ref != snapRef(recvs[1].Ref) || recvs[0].Ref == snapRef(recvs[0].Ref) {
		t.Errorf("refs %v (snapped) and %v (interpolated)", recvs[1].Ref, recvs[0].Ref)
	}
}

// BenchmarkStationLocation compares the per-station cost of the legacy
// nonlinear search against the analytic fast path — the slowdown the
// paper removed at high resolution (section 4.4, item 2).
func BenchmarkStationLocationNonlinear(b *testing.B) {
	g := buildGlobe(b, 8)
	st := ReferenceStations()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LocateNonlinear(g, st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStationLocationFast(b *testing.B) {
	g := buildGlobe(b, 8)
	st := ReferenceStations()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LocateFast(g, st, true); err != nil {
			b.Fatal(err)
		}
	}
}
