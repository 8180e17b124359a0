package solver

import (
	"testing"
	"time"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mpi"
)

// BenchmarkPointPasses prices the point passes of one rank of the
// prem_full_solve shape (PREM, doubled NEX 8, rank 0 of 6, rotation,
// gravity and the ocean load) per point they fire: the predictor (solid
// and fluid), the solid tail with its ocean loop and the fluid tail,
// under the one-level plan and under LTS, where one op is a revolution
// of the wheel. Before
// each pass a 32 MB stream evicts the rank's arrays from the private
// caches, as the force stage does in a real step; one pool worker. It
// is the Go baseline a vector body of the passes is measured against.
func BenchmarkPointPasses(b *testing.B) {
	g, model := premDoubledGlobe(b)
	grav := earthmodel.NewGravityProfile(model, 2000)
	evict := make([]byte, 32<<20)
	for _, lts := range []bool{false, true} {
		name := "one-level"
		if lts {
			name = "lts"
		}
		b.Run(name, func(b *testing.B) {
			opts := Options{Steps: 1, LTS: lts, CombinedSolidHalo: true,
				Rotation: true, Gravity: true, OceanLoad: true}.withDefaults()
			sim := &Simulation{Locals: g.Locals, Plans: g.Plans, Model: model, Opts: opts}
			dt := stableDt(sim.Locals, opts.Courant)
			p := newPool(1)
			defer p.close()
			states := make([]*rankState, len(sim.Locals))
			mpi.NewWorldWith(len(sim.Locals), opts.Network).Run(func(c *mpi.Comm) {
				rs := newRankState(c, sim, &opts, dt, nil, grav, p, newKernels(opts.Kernel), 1)
				rs.assembleMass()
				states[c.Rank()] = rs
			})
			rs := states[0]
			steps := 1 << (len(rs.levels) - 1)
			var predNs, tailNs, fluidNs time.Duration
			var predPts, tailPts, fluidPts int
			run := func(pass func()) time.Duration {
				for i := range evict {
					evict[i]++
				}
				t0 := time.Now()
				pass()
				return time.Since(t0)
			}
			for b.Loop() {
				for step := 1; step <= steps; step++ {
					rs.lp = &rs.levels[ltsLevelOf(step, len(rs.levels))]
					for kind, n := range rs.lp.fired {
						predPts += n
						if rs.solid[kind] != nil {
							tailPts += n
						} else {
							fluidPts += n
						}
					}
					predNs += run(rs.predictor)
					tailNs += run(rs.solidTail)
					fluidNs += run(rs.fluidTail)
				}
			}
			b.ReportMetric(float64(predNs)/float64(predPts), "predictor-ns/point")
			b.ReportMetric(float64(tailNs)/float64(tailPts), "tail-ns/point")
			b.ReportMetric(float64(fluidNs)/float64(fluidPts), "fluid-tail-ns/point")
		})
	}
}
