// Package cubedsphere implements the analytic "gnomonic mapping" (cubed
// sphere) of Sadourny (1972) and Ronchi et al. (1996) that
// SPECFEM3D_GLOBE uses to mesh the globe (the domain decomposition
// behind the paper's section 3 simulation setup): the sphere is split
// into 6 chunks, each parameterized by two angles (xi, eta) in
// [-pi/4, pi/4], and each chunk is further subdivided into NPROC_XI^2
// mesh slices for a total of 6 * NPROC_XI^2 slices, one per MPI rank.
//
// The package also provides the "inflated central cube" mapping for the
// core of the inner core: a spherified cube whose surface grid matches
// the chunk bottom grids point-for-point (because both use tangent-spaced
// nodes), so the global mesh stays conforming across the interface.
package cubedsphere

import (
	"fmt"
	"math"
)

// Vec3 is a 3-vector in Earth-centered Cartesian coordinates.
type Vec3 [3]float64

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }

// Scale returns s * a.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{s * a[0], s * a[1], s * a[2]} }

// Dot returns the dot product.
func (a Vec3) Dot(b Vec3) float64 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }

// Cross returns the cross product a x b.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a[1]*b[2] - a[2]*b[1],
		a[2]*b[0] - a[0]*b[2],
		a[0]*b[1] - a[1]*b[0],
	}
}

// Norm returns the Euclidean length.
func (a Vec3) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// Normalize returns a / |a|; the zero vector is returned unchanged.
func (a Vec3) Normalize() Vec3 {
	n := a.Norm()
	if n == 0 {
		return a
	}
	return a.Scale(1 / n)
}

// MaxAbs returns the Chebyshev (max) norm.
func (a Vec3) MaxAbs() float64 {
	m := math.Abs(a[0])
	if v := math.Abs(a[1]); v > m {
		m = v
	}
	if v := math.Abs(a[2]); v > m {
		m = v
	}
	return m
}

// Face identifies one of the six cubed-sphere chunks.
type Face int

// The six chunks, named by their outward cube-face normal.
const (
	FacePX   Face = iota // +X
	FaceNX               // -X
	FacePY               // +Y
	FaceNY               // -Y
	FacePZ               // +Z
	FaceNZ               // -Z
	NumFaces = 6
)

// String returns a short chunk name.
func (f Face) String() string {
	switch f {
	case FacePX:
		return "+X"
	case FaceNX:
		return "-X"
	case FacePY:
		return "+Y"
	case FaceNY:
		return "-Y"
	case FacePZ:
		return "+Z"
	case FaceNZ:
		return "-Z"
	}
	return fmt.Sprintf("Face(%d)", int(f))
}

// XiMax is the half-width of a chunk in the angular coordinates:
// xi, eta span [-pi/4, pi/4].
const XiMax = math.Pi / 4

// triads[f] holds face f's normal n and in-face axes u, v (see Triad).
// The gnomonic evaluations read them from here, in scalars.
var triads = [NumFaces][3]Vec3{
	FacePX: {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
	FaceNX: {{-1, 0, 0}, {0, 0, 1}, {0, 1, 0}},
	FacePY: {{0, 1, 0}, {0, 0, 1}, {1, 0, 0}},
	FaceNY: {{0, -1, 0}, {1, 0, 0}, {0, 0, 1}},
	FacePZ: {{0, 0, 1}, {1, 0, 0}, {0, 1, 0}},
	FaceNZ: {{0, 0, -1}, {0, 1, 0}, {1, 0, 0}},
}

// Triad returns the face normal n and the two in-face axes u, v such
// that a chunk point with tangent coordinates (a, b) lies along
// n + a*u + b*v. The axes are canonical unit vectors (so grid values
// land bit-exactly in vector components, which global numbering relies
// on) and are ordered so that (u, v, n) is right-handed: u x v = n.
// Right-handedness makes every element's Jacobian determinant positive.
func (f Face) Triad() (n, u, v Vec3) {
	t := f.triad()
	return t[0], t[1], t[2]
}

// triad returns f's row of triads.
func (f Face) triad() *[3]Vec3 {
	if f < 0 || f >= NumFaces {
		panic(fmt.Sprintf("cubedsphere: invalid face %d", int(f)))
	}
	return &triads[f]
}

// Direction returns the unit direction for angular coordinates (xi, eta)
// on face f: the gnomonic mapping normalize(n + tan(xi) u + tan(eta) v).
func Direction(f Face, xi, eta float64) Vec3 {
	return DirectionTan(f, math.Tan(xi), math.Tan(eta))
}

// DirectionTan is Direction with tangent-space coordinates a = tan(xi),
// b = tan(eta) already applied: normalize(n + a*u + b*v), evaluated in
// scalars in the operation order of that Vec3 chain, so each component
// carries the chain's bits (TestScalarGnomonicMatchesVec3Chain).
func DirectionTan(f Face, a, b float64) Vec3 {
	t := f.triad()
	n, u, v := &t[0], &t[1], &t[2]
	d0 := n[0] + a*u[0] + b*v[0]
	d1 := n[1] + a*u[1] + b*v[1]
	d2 := n[2] + a*u[2] + b*v[2]
	l := math.Sqrt(d0*d0 + d1*d1 + d2*d2)
	if l == 0 {
		return Vec3{d0, d1, d2}
	}
	s := 1 / l
	return Vec3{s * d0, s * d1, s * d2}
}

// TanDerivs returns the gnomonic direction dir = d/|d|, d = n + a*u +
// b*v, at tangent coordinates (a, b) on face f, and its partial
// derivatives d(dir)/da = (u - (dir.u) dir)/|d| and d(dir)/db = (v -
// (dir.v) dir)/|d|: the Jacobian factors of every shell and doubling
// element. It is evaluated in scalars, which stay in registers, in the
// operation order of the Vec3 chain it replaced, so every bit is that
// chain's (TestScalarGnomonicMatchesVec3Chain); dir is DirectionTan's.
func TanDerivs(f Face, a, b float64) (dax, day, daz, dbx, dby, dbz, dx, dy, dz float64) {
	t := f.triad()
	n, u, v := &t[0], &t[1], &t[2]
	d0 := n[0] + a*u[0] + b*v[0]
	d1 := n[1] + a*u[1] + b*v[1]
	d2 := n[2] + a*u[2] + b*v[2]
	s := 1 / math.Sqrt(d0*d0+d1*d1+d2*d2)
	dx, dy, dz = s*d0, s*d1, s*d2
	du := dx*u[0] + dy*u[1] + dz*u[2]
	dv := dx*v[0] + dy*v[1] + dz*v[2]
	dax, day, daz = s*(u[0]-du*dx), s*(u[1]-du*dy), s*(u[2]-du*dz)
	dbx, dby, dbz = s*(v[0]-dv*dx), s*(v[1]-dv*dy), s*(v[2]-dv*dz)
	return
}

// FaceOf returns the chunk containing direction d (dominant-axis rule).
// Points exactly on a chunk boundary are assigned to the lower-numbered
// face deterministically.
func FaceOf(d Vec3) Face {
	ax, ay, az := math.Abs(d[0]), math.Abs(d[1]), math.Abs(d[2])
	switch {
	case ax >= ay && ax >= az:
		if d[0] >= 0 {
			return FacePX
		}
		return FaceNX
	case ay >= ax && ay >= az:
		if d[1] >= 0 {
			return FacePY
		}
		return FaceNY
	default:
		if d[2] >= 0 {
			return FacePZ
		}
		return FaceNZ
	}
}

// XiEta inverts Direction for a unit direction d known to lie on face f.
func XiEta(f Face, d Vec3) (xi, eta float64) {
	n, u, v := f.Triad()
	dn := d.Dot(n)
	if dn == 0 {
		return math.NaN(), math.NaN()
	}
	return math.Atan(d.Dot(u) / dn), math.Atan(d.Dot(v) / dn)
}

// TanGrid returns the nex+1 tangent-space node positions tan(xi_i) for a
// uniform angular subdivision of a chunk into nex elements per side.
// These nodes are shared by chunk surfaces and the central cube grid.
func TanGrid(nex int) []float64 {
	g := make([]float64, nex+1)
	for i := 0; i <= nex; i++ {
		xi := -XiMax + float64(i)/float64(nex)*2*XiMax
		g[i] = math.Tan(xi)
	}
	// Pin the symmetric values exactly.
	g[0], g[nex] = -1, 1
	if nex%2 == 0 {
		g[nex/2] = 0
	}
	return g
}

// CubePoint maps a central-cube parameter point (x, y, z) (tangent-space
// cube coordinates, each in [-1, 1]) to physical coordinates for a
// central cube of radius rcc. The mapping is the "spherified cube"
// blend: pure scaled cube at the center (non-degenerate Jacobian at the
// origin) and exact sphere of radius rcc on the surface max|q_i| = 1,
// where it matches the gnomonic chunk bottoms point-for-point. With
// q = (x, y, z) and m = max|q_i|, it is rcc*((1-m^2)/sqrt(3) q +
// m^3 q/|q|), evaluated in scalars in the operation order of that Vec3
// chain (TestScalarGnomonicMatchesVec3Chain).
func CubePoint(x, y, z, rcc float64) (px, py, pz float64) {
	m := math.Abs(x)
	if v := math.Abs(y); v > m {
		m = v
	}
	if v := math.Abs(z); v > m {
		m = v
	}
	if m == 0 {
		return 0, 0, 0
	}
	w := m * m
	c := (1 - w) / math.Sqrt(3)
	// q/|q|, or q itself when |q|^2 underflows to 0 (Vec3.Normalize).
	nx, ny, nz := x, y, z
	if l := math.Sqrt(x*x + y*y + z*z); l != 0 {
		s := 1 / l
		nx, ny, nz = s*x, s*y, s*z
	}
	s := w * m
	return rcc * (c*x + s*nx), rcc * (c*y + s*ny), rcc * (c*z + s*nz)
}

// LatLon converts geographic latitude and longitude in degrees to a unit
// direction (spherical Earth; geocentric latitude).
func LatLon(latDeg, lonDeg float64) Vec3 {
	lat := latDeg * math.Pi / 180
	lon := lonDeg * math.Pi / 180
	return Vec3{
		math.Cos(lat) * math.Cos(lon),
		math.Cos(lat) * math.Sin(lon),
		math.Sin(lat),
	}
}

// ToLatLon converts a direction to geographic latitude and longitude in
// degrees.
func ToLatLon(d Vec3) (latDeg, lonDeg float64) {
	d = d.Normalize()
	return math.Asin(d[2]) * 180 / math.Pi, math.Atan2(d[1], d[0]) * 180 / math.Pi
}
