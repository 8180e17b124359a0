package earthmodel

// PREM — the Preliminary Reference Earth Model of Dziewonski & Anderson
// (Phys. Earth Planet. Inter. 25, 1981) — defined by piecewise
// polynomials in the normalized radius x = r / 6371 km. This file
// transcribes the isotropic version of the published coefficient tables
// (densities in g/cm^3, velocities in km/s, converted to SI on
// evaluation), with the standard PREM attenuation structure.

// Principal PREM radii in meters.
const (
	PREMSurfaceRadius = 6371000.0
	PREMOceanFloor    = 6368000.0 // base of the 3 km ocean
	PREMMidCrust      = 6356000.0 // upper/lower crust boundary
	PREMMoho          = 6346600.0 // crust-mantle boundary
	PREMR220          = 6151000.0 // 220 km discontinuity
	PREMR400          = 5971000.0 // 400 km discontinuity
	PREMR600          = 5771000.0 // 600 km discontinuity
	PREMR670          = 5701000.0 // 670 km discontinuity
	PREMR771          = 5600000.0 // 771 km (lower-mantle polynomial break)
	PREMDoubleVertex  = 3630000.0 // top of D''
	PREMCMB           = 3480000.0 // core-mantle boundary
	PREMICB           = 1221500.0 // inner-core boundary
)

// premLayer is one radial polynomial layer. Coefficients are in the
// published units (g/cm^3 and km/s) as polynomials in x = r/R.
type premLayer struct {
	rMin, rMax float64    // meters, layer spans [rMin, rMax)
	rho        [4]float64 // density polynomial
	vp         [4]float64 // P velocity polynomial
	vs         [4]float64 // S velocity polynomial
	qmu        float64    // shear quality factor (0 = fluid, no shear)
	qkappa     float64    // bulk quality factor
}

// premLayers lists the isotropic PREM layers from the center outward.
// For the transversely isotropic zone between 220 km depth and the Moho
// we use the published isotropic average polynomials, as SPECFEM does
// when anisotropy is switched off.
var premLayers = []premLayer{
	{ // inner core
		rMin: 0, rMax: PREMICB,
		rho: [4]float64{13.0885, 0, -8.8381, 0},
		vp:  [4]float64{11.2622, 0, -6.3640, 0},
		vs:  [4]float64{3.6678, 0, -4.4475, 0},
		qmu: 84.6, qkappa: 1327.7,
	},
	{ // outer core
		rMin: PREMICB, rMax: PREMCMB,
		rho: [4]float64{12.5815, -1.2638, -3.6426, -5.5281},
		vp:  [4]float64{11.0487, -4.0362, 4.8023, -13.5732},
		vs:  [4]float64{0, 0, 0, 0},
		qmu: 0, qkappa: 57823,
	},
	{ // D''
		rMin: PREMCMB, rMax: PREMDoubleVertex,
		rho: [4]float64{7.9565, -6.4761, 5.5283, -3.0807},
		vp:  [4]float64{15.3891, -5.3181, 5.5242, -2.5514},
		vs:  [4]float64{6.9254, 1.4672, -2.0834, 0.9783},
		qmu: 312, qkappa: 57823,
	},
	{ // lower mantle
		rMin: PREMDoubleVertex, rMax: PREMR771,
		rho: [4]float64{7.9565, -6.4761, 5.5283, -3.0807},
		vp:  [4]float64{24.9520, -40.4673, 51.4832, -26.6419},
		vs:  [4]float64{11.1671, -13.7818, 17.4575, -9.2777},
		qmu: 312, qkappa: 57823,
	},
	{ // lower mantle top
		rMin: PREMR771, rMax: PREMR670,
		rho: [4]float64{7.9565, -6.4761, 5.5283, -3.0807},
		vp:  [4]float64{29.2766, -23.6027, 5.5242, -2.5514},
		vs:  [4]float64{22.3459, -17.2473, -2.0834, 0.9783},
		qmu: 312, qkappa: 57823,
	},
	{ // transition zone 670-600
		rMin: PREMR670, rMax: PREMR600,
		rho: [4]float64{5.3197, -1.4836, 0, 0},
		vp:  [4]float64{19.0957, -9.8672, 0, 0},
		vs:  [4]float64{9.9839, -4.9324, 0, 0},
		qmu: 143, qkappa: 57823,
	},
	{ // transition zone 600-400
		rMin: PREMR600, rMax: PREMR400,
		rho: [4]float64{11.2494, -8.0298, 0, 0},
		vp:  [4]float64{39.7027, -32.6166, 0, 0},
		vs:  [4]float64{22.3512, -18.5856, 0, 0},
		qmu: 143, qkappa: 57823,
	},
	{ // transition zone 400-220
		rMin: PREMR400, rMax: PREMR220,
		rho: [4]float64{7.1089, -3.8045, 0, 0},
		vp:  [4]float64{20.3926, -12.2569, 0, 0},
		vs:  [4]float64{8.9496, -4.4597, 0, 0},
		qmu: 143, qkappa: 57823,
	},
	{ // upper mantle 220-Moho: low-velocity zone + LID, isotropic average of the TI zone
		rMin: PREMR220, rMax: PREMMoho,
		rho: [4]float64{2.6910, 0.6924, 0, 0},
		vp:  [4]float64{4.1875, 3.9382, 0, 0},
		vs:  [4]float64{2.1519, 2.3481, 0, 0},
		qmu: 80, qkappa: 57823,
	},
	{ // lower crust
		rMin: PREMMoho, rMax: PREMMidCrust,
		rho: [4]float64{2.900, 0, 0, 0},
		vp:  [4]float64{6.800, 0, 0, 0},
		vs:  [4]float64{3.900, 0, 0, 0},
		qmu: 600, qkappa: 57823,
	},
	{ // upper crust
		rMin: PREMMidCrust, rMax: PREMSurfaceRadius,
		rho: [4]float64{2.600, 0, 0, 0},
		vp:  [4]float64{5.800, 0, 0, 0},
		vs:  [4]float64{3.200, 0, 0, 0},
		qmu: 600, qkappa: 57823,
	},
}

// PREM is the Preliminary Reference Earth Model. The zero value is not
// usable; construct with NewPREM.
type PREM struct {
	// OceanLoad selects whether the 3 km PREM ocean is reported via
	// OceanDepth (the solver approximates the ocean by loading the
	// free-surface mass matrix rather than meshing water).
	OceanLoad bool
	// CrustOnTop replaces the ocean layer with upper crust extended to
	// the surface (PREM "no ocean" variant), always true here because
	// we never mesh the water column.
}

// NewPREM returns the PREM model with the ocean represented as a surface
// load (the standard SPECFEM treatment).
func NewPREM() *PREM { return &PREM{OceanLoad: true} }

// NewPREMNoOcean returns PREM without the ocean load.
func NewPREMNoOcean() *PREM { return &PREM{OceanLoad: false} }

func (p *PREM) Name() string {
	if p.OceanLoad {
		return "PREM"
	}
	return "PREM_no_ocean"
}

func (p *PREM) SurfaceRadius() float64 { return PREMSurfaceRadius }
func (p *PREM) CMB() float64           { return PREMCMB }
func (p *PREM) ICB() float64           { return PREMICB }

// OceanDepth returns the 3 km PREM water column when the ocean load is
// enabled.
func (p *PREM) OceanDepth() float64 {
	if p.OceanLoad {
		return PREMSurfaceRadius - PREMOceanFloor
	}
	return 0
}

// Discontinuities returns the first-order PREM discontinuities used for
// mesh snapping, from the ICB up to the mid-crust boundary.
func (p *PREM) Discontinuities() []float64 {
	return []float64{
		PREMICB, PREMCMB, PREMDoubleVertex, PREMR771, PREMR670,
		PREMR600, PREMR400, PREMR220, PREMMoho, PREMMidCrust,
	}
}

// At evaluates PREM at radius r in meters. Radii at or above the surface
// return the upper-crust values; the 3 km ocean is never returned as a
// material because the solver treats it as a load.
func (p *PREM) At(r float64) Material {
	if r < 0 {
		r = 0
	}
	if r >= PREMSurfaceRadius {
		r = PREMSurfaceRadius - 1
	}
	x := r / PREMSurfaceRadius
	for i := range premLayers {
		l := &premLayers[i]
		if r >= l.rMin && r < l.rMax {
			return Material{
				Rho:    evalPoly(l.rho, x) * 1000, // g/cm^3 -> kg/m^3
				Vp:     evalPoly(l.vp, x) * 1000,  // km/s -> m/s
				Vs:     evalPoly(l.vs, x) * 1000,
				Qmu:    l.qmu,
				Qkappa: l.qkappa,
			}
		}
	}
	// Unreachable: the layer table covers [0, surface).
	panic("earthmodel: PREM layer table gap")
}

func evalPoly(c [4]float64, x float64) float64 {
	return c[0] + x*(c[1]+x*(c[2]+x*c[3]))
}
