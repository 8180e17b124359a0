package solver

import (
	"specglobe/internal/mesh"
	"specglobe/internal/simd"
)

// localEnergy returns this rank's kinetic and elastic potential energy.
// Shared boundary points are owned by several ranks; to avoid double
// counting, kinetic energy is computed from element quadrature (like the
// potential) rather than from the global mass matrix.
//
// Solid:  Ek = 1/2 int rho |v|^2,  Ep = 1/2 int sigma : eps.
// Fluid:  Ek = 1/2 int |grad chiDot|^2 / rho,  Ep = 1/2 int chiDdot^2/kappa
// (pressure p = -chiDdot).
//
//specfem:noaccount diagnostic energy norm, computed every EnergyEvery steps for stability monitoring; excluded from the stepped kernel flop model
func (rs *rankState) localEnergy() (kinetic, potential float64) {
	k := rs.kern
	var ux, uy, uz [simd.PadLen]float32
	var t1x, t2x, t3x [simd.PadLen]float32
	var t1y, t2y, t3y [simd.PadLen]float32
	var t1z, t2z, t3z [simd.PadLen]float32

	// Energy diagnostics track wavefield 0 only: the energy balance is a
	// per-field stability/physics check, and field 0 is the reference
	// single-source field of a batched run.
	for _, fs := range rs.solid {
		if fs == nil {
			continue
		}
		f := fs[0]
		reg := f.reg
		for e := 0; e < reg.NSpec; e++ {
			base := e * mesh.NGLL3
			ib := reg.Ibool[base : base+mesh.NGLL3]
			// Kinetic part by element quadrature.
			for p, g := range ib {
				jw := float64(reg.JacW[base+p])
				rho := float64(reg.Rho[base+p])
				v := &f.v[g]
				v2 := float64(v[0])*float64(v[0]) +
					float64(v[1])*float64(v[1]) +
					float64(v[2])*float64(v[2])
				kinetic += 0.5 * rho * jw * v2
				ux[p], uy[p], uz[p] = f.d[g][0], f.d[g][1], f.d[g][2]
			}
			// Strain energy.
			k.grad(ux[:], t1x[:], t2x[:], t3x[:])
			k.grad(uy[:], t1y[:], t2y[:], t3y[:])
			k.grad(uz[:], t1z[:], t2z[:], t3z[:])
			for p := 0; p < mesh.NGLL3; p++ {
				ip := base + p
				xix, xiy, xiz := reg.Xix[ip], reg.Xiy[ip], reg.Xiz[ip]
				etx, ety, etz := reg.Etax[ip], reg.Etay[ip], reg.Etaz[ip]
				gmx, gmy, gmz := reg.Gamx[ip], reg.Gamy[ip], reg.Gamz[ip]
				duxdx := float64(xix*t1x[p] + etx*t2x[p] + gmx*t3x[p])
				duxdy := float64(xiy*t1x[p] + ety*t2x[p] + gmy*t3x[p])
				duxdz := float64(xiz*t1x[p] + etz*t2x[p] + gmz*t3x[p])
				duydx := float64(xix*t1y[p] + etx*t2y[p] + gmx*t3y[p])
				duydy := float64(xiy*t1y[p] + ety*t2y[p] + gmy*t3y[p])
				duydz := float64(xiz*t1y[p] + etz*t2y[p] + gmz*t3y[p])
				duzdx := float64(xix*t1z[p] + etx*t2z[p] + gmx*t3z[p])
				duzdy := float64(xiy*t1z[p] + ety*t2z[p] + gmy*t3z[p])
				duzdz := float64(xiz*t1z[p] + etz*t2z[p] + gmz*t3z[p])
				exy := 0.5 * (duxdy + duydx)
				exz := 0.5 * (duxdz + duzdx)
				eyz := 0.5 * (duydz + duzdy)
				tr := duxdx + duydy + duzdz
				mu := float64(reg.Mu[ip])
				lam := float64(reg.Kappa[ip]) - 2.0/3.0*mu
				sxx := lam*tr + 2*mu*duxdx
				syy := lam*tr + 2*mu*duydy
				szz := lam*tr + 2*mu*duzdz
				e2 := sxx*duxdx + syy*duydy + szz*duzdz +
					2*mu*(2*exy*exy+2*exz*exz+2*eyz*eyz)
				potential += 0.5 * float64(reg.JacW[ip]) * e2
			}
		}
	}

	if rs.fluid != nil {
		fl := rs.fluid[0]
		reg := fl.reg
		var chiDot [simd.PadLen]float32
		var d1, d2, d3 [simd.PadLen]float32
		for e := 0; e < reg.NSpec; e++ {
			base := e * mesh.NGLL3
			ib := reg.Ibool[base : base+mesh.NGLL3]
			for p, g := range ib {
				chiDot[p] = fl.chiDot[g]
			}
			k.grad(chiDot[:], d1[:], d2[:], d3[:])
			for p, g := range ib {
				ip := base + p
				xix, xiy, xiz := reg.Xix[ip], reg.Xiy[ip], reg.Xiz[ip]
				etx, ety, etz := reg.Etax[ip], reg.Etay[ip], reg.Etaz[ip]
				gmx, gmy, gmz := reg.Gamx[ip], reg.Gamy[ip], reg.Gamz[ip]
				gx := float64(xix*d1[p] + etx*d2[p] + gmx*d3[p])
				gy := float64(xiy*d1[p] + ety*d2[p] + gmy*d3[p])
				gz := float64(xiz*d1[p] + etz*d2[p] + gmz*d3[p])
				jw := float64(reg.JacW[ip])
				rho := float64(reg.Rho[ip])
				kinetic += 0.5 * jw * (gx*gx + gy*gy + gz*gz) / rho
				pdd := float64(fl.chiDdot[g])
				potential += 0.5 * jw * pdd * pdd / float64(reg.Kappa[ip])
			}
		}
	}
	return kinetic, potential
}
