// Package boxmesh builds rectangular Cartesian spectral-element meshes
// that use exactly the same mesh.Local structures as the globe mesher.
// It exists for validation of the solver physics the paper's section 3
// benchmark set exercises: plane waves, point sources and energy
// budgets in a homogeneous box have known behavior, so the solver's
// kernels can be tested without the sphere's geometric complexity.
package boxmesh

import (
	"fmt"

	"specglobe/internal/earthmodel"
	"specglobe/internal/gll"
	"specglobe/internal/mesh"
)

// Config describes a box mesh.
type Config struct {
	// Nx, Ny, Nz are element counts per axis.
	Nx, Ny, Nz int
	// Lx, Ly, Lz are the box dimensions in meters.
	Lx, Ly, Lz float64
	// NRanks splits the box into slabs along x (Nx must divide evenly).
	NRanks int
	// Mat is the uniform material.
	Mat earthmodel.Material
}

// Box is the built mesh plus the grids needed for point location.
type Box struct {
	Cfg        Config
	Locals     []*mesh.Local
	Plans      []*mesh.HaloPlan
	gx, gy, gz []float64
}

var gllS = func() [gll.NGLL]float64 {
	var s [gll.NGLL]float64
	for i, x := range gll.Points(gll.Degree) {
		s[i] = (x + 1) / 2
	}
	s[0], s[gll.NGLL-1] = 0, 1
	return s
}()

var gllW = func() [gll.NGLL]float64 {
	var w [gll.NGLL]float64
	copy(w[:], gll.Weights(gll.Degree, gll.Points(gll.Degree)))
	return w
}()

func lerp(lo, hi, s float64) float64 { return lo*(1-s) + hi*s }

func grid(n int, L float64) []float64 {
	g := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		g[i] = L * float64(i) / float64(n)
	}
	return g
}

// Build constructs the box mesh.
func Build(cfg Config) (*Box, error) {
	if cfg.Nx < 1 || cfg.Ny < 1 || cfg.Nz < 1 {
		return nil, fmt.Errorf("boxmesh: element counts must be positive")
	}
	if cfg.Lx <= 0 || cfg.Ly <= 0 || cfg.Lz <= 0 {
		return nil, fmt.Errorf("boxmesh: dimensions must be positive")
	}
	if cfg.NRanks < 1 {
		return nil, fmt.Errorf("boxmesh: NRanks must be >= 1")
	}
	if cfg.Nx%cfg.NRanks != 0 {
		return nil, fmt.Errorf("boxmesh: Nx=%d not divisible by NRanks=%d", cfg.Nx, cfg.NRanks)
	}
	if cfg.Mat.Rho <= 0 || cfg.Mat.Vp <= 0 {
		return nil, fmt.Errorf("boxmesh: material must have positive rho and vp")
	}
	b := &Box{
		Cfg: cfg,
		gx:  grid(cfg.Nx, cfg.Lx),
		gy:  grid(cfg.Ny, cfg.Ly),
		gz:  grid(cfg.Nz, cfg.Lz),
	}
	perRank := cfg.Nx / cfg.NRanks
	b.Locals = make([]*mesh.Local, cfg.NRanks)
	for rank := 0; rank < cfg.NRanks; rank++ {
		local := &mesh.Local{Rank: rank}
		for kind := 0; kind < 3; kind++ {
			local.Regions[kind] = mesh.NewRegion(earthmodel.Region(kind), 0)
		}
		nspec := perRank * cfg.Ny * cfg.Nz
		reg := mesh.NewRegion(earthmodel.RegionCrustMantle, nspec)
		nodes := newNodeGrid(perRank, cfg.Ny, cfg.Nz)
		reg.NGlob = len(nodes.id)
		reg.Pts = make([][3]float64, reg.NGlob)
		e := 0
		var el mesh.Element
		for k := 0; k < cfg.Nz; k++ {
			for j := 0; j < cfg.Ny; j++ {
				for i := rank * perRank; i < (rank+1)*perRank; i++ {
					b.fillElement(reg, nodes, &el, e, i, j, k, i-rank*perRank)
					if err := reg.Fold(e, &el); err != nil {
						return nil, fmt.Errorf("boxmesh: rank %d: %w", rank, err)
					}
					e++
				}
			}
		}
		if err := reg.Finish(); err != nil {
			return nil, fmt.Errorf("boxmesh: rank %d: %w", rank, err)
		}
		local.Regions[earthmodel.RegionCrustMantle] = reg
		b.Locals[rank] = local
	}
	var err error
	b.Plans, err = mesh.BuildHalo(b.Locals)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// nodeGrid numbers a slab's GLL nodes, a (4nx+1) x (4ny+1) x (4nz+1)
// grid for nx x ny x nz elements, in first-sight order: id[I + w[0]*(J +
// w[1]*K)] is node (I, J, K)'s point number, negative until first seen.
type nodeGrid struct {
	id []int32
	w  [2]int
	n  int32
}

// newNodeGrid returns the grid of nx x ny x nz elements, every node unseen.
func newNodeGrid(nx, ny, nz int) *nodeGrid {
	const d = mesh.NGLL - 1
	g := &nodeGrid{w: [2]int{d*nx + 1, d*ny + 1}}
	g.id = make([]int32, g.w[0]*g.w[1]*(d*nz+1))
	for i := range g.id {
		g.id[i] = -1
	}
	return g
}

// point returns the number of node (I, J, K), recording its position in
// pts on first sight.
func (g *nodeGrid) point(I, J, K int, pts [][3]float64, p [3]float64) int32 {
	slot := I + g.w[0]*(J+g.w[1]*K)
	if g.id[slot] < 0 {
		g.id[slot] = g.n
		pts[g.n] = p
		g.n++
	}
	return g.id[slot]
}

// fillElement fills one affine box element, cell (i, j, k) of the box and
// column il of the rank's slab, into the region and el, which the region
// then folds: the Jacobian is constant.
func (b *Box) fillElement(reg *mesh.Region, nodes *nodeGrid, el *mesh.Element, e, i, j, k, il int) {
	x0, x1 := b.gx[i], b.gx[i+1]
	y0, y1 := b.gy[j], b.gy[j+1]
	z0, z1 := b.gz[k], b.gz[k+1]
	hx, hy, hz := (x1-x0)/2, (y1-y0)/2, (z1-z0)/2
	det := hx * hy * hz
	mat := b.Cfg.Mat
	const d = mesh.NGLL - 1
	for kk := 0; kk < mesh.NGLL; kk++ {
		for jj := 0; jj < mesh.NGLL; jj++ {
			for ii := 0; ii < mesh.NGLL; ii++ {
				ip := mesh.Idx(e, ii, jj, kk)
				p := ip - e*mesh.NGLL3
				el.Pos[p] = [3]float64{lerp(x0, x1, gllS[ii]), lerp(y0, y1, gllS[jj]), lerp(z0, z1, gllS[kk])}
				reg.Ibool[ip] = nodes.point(d*il+ii, d*j+jj, d*k+kk, reg.Pts, el.Pos[p])
				reg.Xix[ip] = float32(1 / hx)
				reg.Etay[ip] = float32(1 / hy)
				reg.Gamz[ip] = float32(1 / hz)
				reg.Jac[ip] = float32(det)
				el.MassW[p] = float32(det * gllW[ii] * gllW[jj] * gllW[kk])
				el.Rho[p] = float32(mat.Rho)
				el.Kappa[p] = float32(mat.Kappa())
				el.Mu[p] = float32(mat.Mu())
			}
		}
	}
	reg.Qmu[e] = float32(mat.Qmu)
	reg.Qkappa[e] = float32(mat.Qkappa)
}

// Locate returns the rank, element and reference coordinates of a
// physical position inside the box.
func (b *Box) Locate(x, y, z float64) (rank, elem int, ref [3]float64, err error) {
	cell := func(g []float64, v float64) (int, float64, error) {
		if v < g[0] || v > g[len(g)-1] {
			return 0, 0, fmt.Errorf("boxmesh: coordinate %g outside [%g, %g]", v, g[0], g[len(g)-1])
		}
		for i := 0; i+1 < len(g); i++ {
			if v <= g[i+1] || i == len(g)-2 {
				return i, 2*(v-g[i])/(g[i+1]-g[i]) - 1, nil
			}
		}
		return len(g) - 2, 1, nil
	}
	ci, rx, err := cell(b.gx, x)
	if err != nil {
		return 0, 0, ref, err
	}
	cj, ry, err := cell(b.gy, y)
	if err != nil {
		return 0, 0, ref, err
	}
	ck, rz, err := cell(b.gz, z)
	if err != nil {
		return 0, 0, ref, err
	}
	perRank := b.Cfg.Nx / b.Cfg.NRanks
	rank = ci / perRank
	iLocal := ci - rank*perRank
	elem = (ck*b.Cfg.Ny+cj)*perRank + iLocal
	return rank, elem, [3]float64{rx, ry, rz}, nil
}
