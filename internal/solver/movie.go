package solver

import (
	"math"

	"specglobe/internal/earthmodel"
)

// Surface movie output, the equivalent of SPECFEM3D_GLOBE's
// MOVIE_SURFACE: the velocity magnitude at every free-surface grid
// point, gathered to rank 0 every N steps. Production runs use these
// frames to render the global wavefield animations.

// MovieFrame is one snapshot of the surface wavefield.
type MovieFrame struct {
	Step int
	Time float64
	// VNorm holds |v| at each surface point, ordered like Movie.Lat.
	VNorm []float64
}

// Movie is the gathered surface wavefield.
type Movie struct {
	// Lat and Lon give the geographic position of each surface point
	// (concatenated over ranks in rank order).
	Lat, Lon []float64
	Frames   []MovieFrame
}

// PeakFrame returns the index of the frame with the largest surface
// velocity, a cheap summary used by tests and reports.
func (m *Movie) PeakFrame() int {
	best, bestV := -1, 0.0
	for i, f := range m.Frames {
		for _, v := range f.VNorm {
			if v > bestV {
				bestV = v
				best = i
			}
		}
	}
	return best
}

// gatherMoviePositions collects the surface point positions once at
// startup; only rank 0 receives the result.
//
//specfem:noaccount one-time movie I/O setup: surface positions gathered at startup, not stepped work
func (rs *rankState) gatherMoviePositions() *Movie {
	sl := &rs.local.Surface
	cm := rs.local.Regions[earthmodel.RegionCrustMantle]
	buf := make([]float64, 0, 2*len(sl.Pts))
	for _, pt := range sl.Pts {
		p := cm.Pts[pt]
		r := math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
		if r == 0 {
			buf = append(buf, 0, 0)
			continue
		}
		lat := math.Asin(p[2]/r) * 180 / math.Pi
		lon := math.Atan2(p[1], p[0]) * 180 / math.Pi
		buf = append(buf, lat, lon)
	}
	parts := rs.comm.Gather(0, buf)
	if parts == nil {
		return nil
	}
	m := &Movie{}
	for _, part := range parts {
		for i := 0; i+1 < len(part); i += 2 {
			m.Lat = append(m.Lat, part[i])
			m.Lon = append(m.Lon, part[i+1])
		}
	}
	return m
}

// gatherMovieFrame collects |v| at the surface points of every rank;
// only rank 0 appends the frame.
//
//specfem:noaccount movie I/O path: |v| surface extraction is O(surface points) output, outside the flop model
func (rs *rankState) gatherMovieFrame(m *Movie, step int) {
	sl := &rs.local.Surface
	// Movie frames render wavefield 0 (the reference field of a batch).
	var cm *solidField
	if fs := rs.solid[earthmodel.RegionCrustMantle]; fs != nil {
		cm = fs[0]
	}
	buf := make([]float64, 0, len(sl.Pts))
	if cm != nil {
		for _, pt := range sl.Pts {
			v := &cm.v[pt]
			vx, vy, vz := float64(v[0]), float64(v[1]), float64(v[2])
			buf = append(buf, math.Sqrt(vx*vx+vy*vy+vz*vz))
		}
	}
	parts := rs.comm.Gather(0, buf)
	if parts == nil || m == nil {
		return
	}
	frame := MovieFrame{Step: step + 1, Time: float64(step+1) * rs.dt}
	for _, part := range parts {
		frame.VNorm = append(frame.VNorm, part...)
	}
	m.Frames = append(m.Frames, frame)
}

// movieSupported reports whether the mesh carries surface information.
func movieSupported(sim *Simulation) bool {
	for _, l := range sim.Locals {
		if len(l.Surface.Pts) > 0 {
			return true
		}
	}
	return false
}
