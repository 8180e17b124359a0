// Package stations implements seismic recording stations and the two
// location algorithms compared in the paper's section 4.4: the legacy
// "costly non linear algorithm" (a global nearest-point scan refined by
// Newton iteration in reference coordinates, followed by interpolated
// recording) and the fast high-resolution mode that snaps each station
// to the closest GLL point ("the mesh is so dense that the error made
// is then very small").
package stations

import (
	"fmt"
	"math"

	"specglobe/internal/cubedsphere"
	"specglobe/internal/earthmodel"
	"specglobe/internal/gll"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/solver"
)

// Station is a seismic recording site.
type Station struct {
	Name    string
	LatDeg  float64
	LonDeg  float64
	DepthM  float64 // burial depth below the surface, usually 0
	Network string
}

// GlobalNetwork returns a deterministic synthetic worldwide network of n
// stations laid out on a Fibonacci lattice — a stand-in for the Global
// Seismographic Network station lists the production runs use (real
// station files are a data gate; see DESIGN.md).
func GlobalNetwork(n int) []Station {
	if n < 1 {
		n = 1
	}
	out := make([]Station, n)
	golden := math.Pi * (3 - math.Sqrt(5))
	for i := 0; i < n; i++ {
		z := 1 - 2*(float64(i)+0.5)/float64(n)
		lat := math.Asin(z) * 180 / math.Pi
		lon := math.Mod(float64(i)*golden, 2*math.Pi)*180/math.Pi - 180
		out[i] = Station{
			Name:    fmt.Sprintf("S%03d", i),
			Network: "XX",
			LatDeg:  lat,
			LonDeg:  lon,
		}
	}
	return out
}

// ReferenceStations returns a handful of real GSN station coordinates
// used by the examples.
func ReferenceStations() []Station {
	return []Station{
		{Name: "ANMO", Network: "IU", LatDeg: 34.946, LonDeg: -106.457},
		{Name: "HRV", Network: "IU", LatDeg: 42.506, LonDeg: -71.558},
		{Name: "KIP", Network: "IU", LatDeg: 21.420, LonDeg: -158.011},
		{Name: "PAS", Network: "CI", LatDeg: 34.148, LonDeg: -118.171},
		{Name: "BFO", Network: "II", LatDeg: 48.330, LonDeg: 8.330},
		{Name: "CAN", Network: "G", LatDeg: -35.321, LonDeg: 148.999},
		{Name: "NNA", Network: "II", LatDeg: -11.988, LonDeg: -76.842},
		{Name: "KONO", Network: "IU", LatDeg: 59.649, LonDeg: 9.598},
	}
}

// Located pairs a station with its mesh location and the residual
// distance between the station and the point that will actually be
// recorded.
type Located struct {
	Station  Station
	Loc      meshfem.Location
	ErrorM   float64 // distance from the true position, meters
	Snapped  bool    // true when located to the nearest grid point
	NewtonIt int     // Newton iterations used (nonlinear mode)
	Examined int     // elements the locator examined
}

// LocateFast uses the analytic cubed-sphere location (the simple
// algorithm adopted at high resolution) and optionally snaps to the
// nearest GLL point.
func LocateFast(g *meshfem.Globe, st Station, snap bool) (Located, error) {
	loc, err := g.LocateLatLonDepth(st.LatDeg, st.LonDeg, st.DepthM)
	if err != nil {
		return Located{}, fmt.Errorf("stations: %s: %w", st.Name, err)
	}
	out := Located{Station: st, Loc: loc, Snapped: snap, Examined: 1}
	want := cubedsphere.LatLon(st.LatDeg, st.LonDeg).Scale(g.Cfg.Model.SurfaceRadius() - st.DepthM)
	if snap {
		out.Loc.Ref = snapRef(loc.Ref)
	}
	got, err := g.PointAt(out.Loc)
	if err != nil {
		return Located{}, err
	}
	out.ErrorM = got.Sub(want).Norm()
	return out, nil
}

// LocateNonlinear is the legacy algorithm: a brute-force scan of every
// element's GLL points for the closest starting point, then Newton
// iteration on the reference coordinates so the recorded position lands
// exactly on the station. This is the per-station cost that produced
// "significant slowdown ... and significant load imbalance" at high
// resolution.
func LocateNonlinear(g *meshfem.Globe, st Station) (Located, error) {
	want := cubedsphere.LatLon(st.LatDeg, st.LonDeg).Scale(g.Cfg.Model.SurfaceRadius() - st.DepthM)

	// Global nearest GLL point scan over the crust/mantle regions.
	bestRank, bestElem, bestP := -1, -1, -1
	bestD := math.Inf(1)
	examined := 0
	for _, l := range g.Locals {
		reg := l.Regions[earthmodel.RegionCrustMantle]
		if reg == nil {
			continue
		}
		for e := 0; e < reg.NSpec; e++ {
			examined++
			for p := 0; p < mesh.NGLL3; p++ {
				pt := reg.Pts[reg.Ibool[e*mesh.NGLL3+p]]
				dx := pt[0] - want[0]
				dy := pt[1] - want[1]
				dz := pt[2] - want[2]
				d := dx*dx + dy*dy + dz*dz
				if d < bestD {
					bestD = d
					bestRank, bestElem, bestP = l.Rank, e, p
				}
			}
		}
	}
	if bestRank < 0 {
		return Located{}, fmt.Errorf("stations: %s: no crust/mantle elements", st.Name)
	}
	// Initial reference coordinates: the winning GLL node.
	pts := gll.Points(gll.Degree)
	ref := [3]float64{
		pts[bestP%mesh.NGLL],
		pts[(bestP/mesh.NGLL)%mesh.NGLL],
		pts[bestP/mesh.NGLL2],
	}
	reg := g.Locals[bestRank].Regions[earthmodel.RegionCrustMantle]
	iters := 0
	for ; iters < 30; iters++ {
		got := mesh.InterpolateGeometry(reg, bestElem, ref)
		rx := want[0] - got[0]
		ry := want[1] - got[1]
		rz := want[2] - got[2]
		if rx*rx+ry*ry+rz*rz < 1e-8 { // 0.1 mm^2
			break
		}
		jac := geometryJacobian(reg, bestElem, ref)
		step, err := solve3(jac, [3]float64{rx, ry, rz})
		if err != nil {
			break
		}
		for c := 0; c < 3; c++ {
			ref[c] += step[c]
			// Keep the iterate inside the element.
			if ref[c] < -1.1 {
				ref[c] = -1.1
			}
			if ref[c] > 1.1 {
				ref[c] = 1.1
			}
		}
	}
	loc := meshfem.Location{
		Rank: bestRank, Kind: earthmodel.RegionCrustMantle,
		Elem: bestElem, Ref: ref, Pos: want,
	}
	got := mesh.InterpolateGeometry(reg, bestElem, ref)
	err := math.Sqrt((got[0]-want[0])*(got[0]-want[0]) +
		(got[1]-want[1])*(got[1]-want[1]) +
		(got[2]-want[2])*(got[2]-want[2]))
	return Located{Station: st, Loc: loc, ErrorM: err, NewtonIt: iters, Examined: examined}, nil
}

// geometryJacobian returns dX/dref at arbitrary reference coordinates by
// differentiating the trilinear Lagrange product.
func geometryJacobian(reg *mesh.Region, elem int, ref [3]float64) [3][3]float64 {
	pts := gll.Points(gll.Degree)
	lx := gll.Lagrange(pts, ref[0])
	ly := gll.Lagrange(pts, ref[1])
	lz := gll.Lagrange(pts, ref[2])
	dlx := gll.LagrangeDeriv(pts, ref[0])
	dly := gll.LagrangeDeriv(pts, ref[1])
	dlz := gll.LagrangeDeriv(pts, ref[2])
	var jac [3][3]float64
	for k := 0; k < mesh.NGLL; k++ {
		for j := 0; j < mesh.NGLL; j++ {
			for i := 0; i < mesh.NGLL; i++ {
				p := i + mesh.NGLL*j + mesh.NGLL2*k
				pt := reg.Pts[reg.Ibool[elem*mesh.NGLL3+p]]
				w := [3]float64{
					dlx[i] * ly[j] * lz[k],
					lx[i] * dly[j] * lz[k],
					lx[i] * ly[j] * dlz[k],
				}
				for r := 0; r < 3; r++ {
					for c := 0; c < 3; c++ {
						jac[r][c] += w[c] * pt[r]
					}
				}
			}
		}
	}
	return jac
}

// solve3 solves the 3x3 system jac * x = b by Cramer's rule.
func solve3(m [3][3]float64, b [3]float64) ([3]float64, error) {
	det := m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
	if math.Abs(det) < 1e-300 {
		return [3]float64{}, fmt.Errorf("stations: singular location Jacobian")
	}
	rep := func(col int) float64 {
		n := m
		for r := 0; r < 3; r++ {
			n[r][col] = b[r]
		}
		return n[0][0]*(n[1][1]*n[2][2]-n[1][2]*n[2][1]) -
			n[0][1]*(n[1][0]*n[2][2]-n[1][2]*n[2][0]) +
			n[0][2]*(n[1][0]*n[2][1]-n[1][1]*n[2][0])
	}
	return [3]float64{rep(0) / det, rep(1) / det, rep(2) / det}, nil
}

// snapRef moves reference coordinates to the nearest GLL node per axis.
func snapRef(ref [3]float64) [3]float64 {
	pts := gll.Points(gll.Degree)
	var out [3]float64
	for c := 0; c < 3; c++ {
		best, bestD := 0.0, math.Inf(1)
		for _, x := range pts {
			if d := math.Abs(x - ref[c]); d < bestD {
				best, bestD = x, d
			}
		}
		out[c] = best
	}
	return out
}

// ToReceivers converts located stations to solver receivers. A snapped
// location's Ref is a GLL node, where the solver's interpolation
// weights are one-hot: it records that grid point's displacement.
func ToReceivers(located []Located) []solver.Receiver {
	out := make([]solver.Receiver, len(located))
	for i, l := range located {
		out[i] = solver.Receiver{
			Name: l.Station.Name,
			Rank: l.Loc.Rank,
			Kind: l.Loc.Kind,
			Elem: l.Loc.Elem,
			Ref:  l.Loc.Ref,
		}
	}
	return out
}

// MaxLocationError returns the worst residual of a located set, the
// quantity whose decay with resolution justifies the nearest-point mode
// at high resolution.
func MaxLocationError(located []Located) float64 {
	worst := 0.0
	for _, l := range located {
		if l.ErrorM > worst {
			worst = l.ErrorM
		}
	}
	return worst
}
