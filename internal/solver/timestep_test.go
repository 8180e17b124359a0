package solver

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/meshfem"
	"specglobe/internal/mpi"
	"specglobe/internal/simd"
)

// stepBeats builds every rank of sim and returns rank's beat names.
func stepBeats(t *testing.T, sim *Simulation, rank int) []string {
	t.Helper()
	var names []string
	for _, b := range rankStates(t, sim)[rank].beats {
		names = append(names, b.Name)
	}
	return names
}

// earthlike24 builds the 24-rank earthlike NEX 4 globe.
func earthlike24(t testing.TB) (*meshfem.Globe, earthmodel.Model) {
	t.Helper()
	model := earthmodel.EarthLike()
	g, err := meshfem.Build(meshfem.Config{NexXi: 4, NProcXi: 2, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	return g, model
}

// The step of a rank is its beat list, in the order of the overlap
// schedule: predictors, the fluid stage, the solid stage, the ocean
// load, the record. A rank posts and finishes both halo sets — the outer
// core, and the crust/mantle with the inner core in one — whether it
// carries the regions or not (the tags stay aligned); every other beat
// is there only where the rank has something for it to do: a region's
// passes and sweeps where it carries the region, the coupling with a
// fluid, the traction and sources with a fluid or a source, the ocean
// load with a water column, the record with a receiver. Every rank of
// the meshed globes carries all three regions; the box world carries the
// crust/mantle alone.
func TestStepBeats(t *testing.T) {
	fluid := []string{"outer_forces/outer_core", "coupling", "post/outer_core", "inner_forces/outer_core",
		"finish/outer_core", "tail/outer_core", "outer_forces/crust_mantle", "outer_forces/inner_core", "traction+sources",
		"post/solid", "inner_forces/crust_mantle", "inner_forces/inner_core", "finish/solid"}
	globe := func(end ...string) []string {
		all := []string{"predict/crust_mantle", "predict/outer_core", "predict/inner_core"}
		all = append(append(all, fluid...), "tail/crust_mantle", "tail/inner_core")
		return append(all, end...)
	}
	t.Run("prem", func(t *testing.T) {
		g, model := premDoubledGlobe(t)
		sim := globeSim(t, g, model, Options{OceanLoad: true})
		// The receiver in the source's element: one rank has both.
		sim.Receivers[0].Rank, sim.Receivers[0].Kind, sim.Receivers[0].Elem = sim.Sources[0].Rank, sim.Sources[0].Kind, sim.Sources[0].Elem
		want := globe("ocean", "record")
		if got := stepBeats(t, sim, sim.Sources[0].Rank); !slices.Equal(got, want) {
			t.Errorf("beats\n%s\nwant\n%s", strings.Join(got, " "), strings.Join(want, " "))
		}
	})
	t.Run("earthlike24", func(t *testing.T) {
		g, model := earthlike24(t)
		sim := &Simulation{Locals: g.Locals, Plans: g.Plans, Model: model, Opts: Options{OceanLoad: true}}
		want := globe()
		if got := stepBeats(t, sim, 13); !slices.Equal(got, want) {
			t.Errorf("beats\n%s\nwant\n%s", strings.Join(got, " "), strings.Join(want, " "))
		}
	})
	t.Run("box", func(t *testing.T) {
		const L = 40e3
		b := buildBox(t, 4, 2, L)
		src := boxSource(t, b, L/4, L/2, L/2, 1e17, 1.0)
		sim := &Simulation{Locals: b.Locals, Plans: b.Plans, Sources: []Source{src}}
		want := []string{"predict/crust_mantle", "post/outer_core", "finish/outer_core", "outer_forces/crust_mantle",
			"traction+sources", "post/solid", "inner_forces/crust_mantle", "finish/solid", "tail/crust_mantle"}
		if got := stepBeats(t, sim, src.Rank); !slices.Equal(got, want) {
			t.Errorf("beats\n%s\nwant\n%s", strings.Join(got, " "), strings.Join(want, " "))
		}
		if got := stepBeats(t, sim, 1-src.Rank); !slices.Equal(got, slices.Delete(want, 4, 5)) {
			t.Errorf("beats of the rank without the source\n%s", strings.Join(got, " "))
		}
	})
}

// The profiler times the beats back to back from each step's mark, so
// the beat times and the unattributed time between steps add up to the
// loop's wall time over ranks, and every beat of every rank is timed.
func TestBeatTimesCoverTheLoop(t *testing.T) {
	var mu sync.Mutex
	names := map[string]bool{}
	onEveryStep(t, func(rs *rankState, step int) {
		mu.Lock()
		defer mu.Unlock()
		for _, b := range rs.beats {
			names[b.Name] = true
		}
	})
	g, model := coupledGlobe(t, 4, 1)
	res, err := Run(globeSim(t, g, model, Options{Steps: 6, EnergyEvery: 2}))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Perf
	var beats time.Duration
	for _, d := range p.Beats {
		beats += d
	}
	if p.Unattributed+beats != p.TotalTime || p.Unattributed < 0 {
		t.Errorf("unattributed %v + beats %v != total %v", p.Unattributed, beats, p.TotalTime)
	}
	if len(names) < 15 {
		t.Errorf("only %d beat names: %v", len(names), names)
	}
	for name := range names {
		if _, ok := p.Beats[name]; !ok {
			t.Errorf("beat %s is not timed", name)
		}
	}
}

// The per-rank counts of a solve: they sum to the totals exactly, the
// busiest rank's are the largest, and a single source on the 24-rank
// earthlike globe leaves most ranks quiet for a few steps, so the
// busiest rank does more than the mean.
func TestRankCountsOfASolve(t *testing.T) {
	g, model := earthlike24(t)
	res, err := Run(globeSim(t, g, model, Options{Steps: 4}))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Perf
	var f, b int64
	for i := range p.RankFlops {
		f += p.RankFlops[i]
		b += p.RankBytes[i]
	}
	if len(p.RankFlops) != 24 || f != p.TotalFlops || b != p.TotalBytes {
		t.Errorf("%d ranks sum to %d flops, %d bytes; totals %d, %d", len(p.RankFlops), f, b, p.TotalFlops, p.TotalBytes)
	}
	if p.MaxRankFlops != slices.Max(p.RankFlops) || p.MaxRankBytes != slices.Max(p.RankBytes) {
		t.Errorf("busiest rank %d flops, %d bytes; per rank %v, %v", p.MaxRankFlops, p.MaxRankBytes, p.RankFlops, p.RankBytes)
	}
	if p.Imbalance <= 1 {
		t.Errorf("imbalance %v, want > 1 with one source", p.Imbalance)
	}
}

// BenchmarkPointPasses prices the point-pass beats of one rank of the
// prem_full_solve shape (PREM, doubled NEX 8, rank 0 of 6, rotation,
// gravity and the ocean load) per point they pass, on both bodies
// (/avx2, /go): the predictor beats (solid and fluid), the solid tail
// beats with the ocean beat and the fluid tail beat, all on live pages
// — every field of the rank holds normal non-zero values and every page
// is live — and the tail beats again on dead pages with a +0
// acceleration, which is the dead-page test alone. Before each timed
// pass a 32 MB stream evicts the rank's arrays from the private caches,
// as the force stage does in a real step; one pool worker.
func BenchmarkPointPasses(b *testing.B) {
	g, model := premDoubledGlobe(b)
	grav := earthmodel.NewGravityProfile(model, 2000)
	opts := Options{Steps: 1, Rotation: true, Gravity: true, OceanLoad: true}.withDefaults()
	sim := &Simulation{Locals: g.Locals, Plans: g.Plans, Model: model, Opts: opts}
	dt := mesh.StableDt(sim.Locals, mesh.Courant)
	p := newPool(1, 1)
	defer p.close()
	states := make([]*rankState, len(sim.Locals))
	mpi.NewWorldWith(len(sim.Locals), opts.Network).Run(func(c *mpi.Comm) {
		rs := newRankState(c, sim, &opts, dt, nil, grav, p, newKernels(opts.Kernel), 1)
		rs.assembleMass()
		states[c.Rank()] = rs
	})
	rs := states[0]
	oc := int(earthmodel.RegionOuterCore)
	var solid []*solidField
	for _, fs := range rs.solid {
		solid = append(solid, fs...)
	}
	live := func(m *pageMarks) {
		for pg := range m.live {
			m.wake(pg)
		}
	}
	for _, f := range solid {
		live(f.pages)
	}
	live(rs.fluid[0].pages)
	// fill gives the rank's state values of about 1e-6, none zero.
	fill := func() {
		for _, a := range [][]float32{rs.fluid[0].chi, rs.fluid[0].chiDot, rs.fluid[0].chiDdot} {
			for i := range a {
				a[i] = 1e-6 * float32(1+i%7) * float32(1-2*(i%2))
			}
		}
		for _, f := range solid {
			for _, a := range [][]float32{flat(f.d), flat(f.v), flat(f.a)} {
				for i := range a {
					a[i] = 1e-6 * float32(1+i%7) * float32(1-2*(i%2))
				}
			}
		}
	}
	evict := make([]byte, 32<<20)
	// run times the rank's beats of one step that match.
	run := func(match func(b *beat) bool) time.Duration {
		for i := range evict {
			evict[i]++
		}
		t0 := time.Now()
		for i := range rs.beats {
			if b := &rs.beats[i]; match(b) {
				rs.run(b, 1)
			}
		}
		return time.Since(t0)
	}
	bench := func(b *testing.B) {
		var predNs, tailNs, fluidNs, deadNs time.Duration
		var predPts, tailPts, fluidPts int
		deadSolid := make([]*pageMarks, len(solid))
		for i, f := range solid {
			deadSolid[i] = newPageMarks(len(f.a))
		}
		deadFluid := newPageMarks(len(rs.fluid[0].chi))
		for b.Loop() {
			for kind, reg := range rs.local.Regions {
				if reg == nil {
					continue
				}
				predPts += reg.NGlob
				if kind == oc {
					fluidPts += reg.NGlob
				} else {
					tailPts += reg.NGlob
				}
			}
			fill()
			predNs += run(func(b *beat) bool { return b.kind == beatPredict })
			tailNs += run(func(b *beat) bool { return b.kind == beatTail && b.region != oc || b.kind == beatOcean })
			fluidNs += run(func(b *beat) bool { return b.kind == beatTail && b.region == oc })

			// The dead pages: +0 accelerations the tails test and pass by.
			fl := rs.fluid[0]
			livePages := fl.pages
			clear(fl.chiDdot)
			fl.pages = deadFluid
			for i, f := range solid {
				clear(f.a)
				f.pages, deadSolid[i] = deadSolid[i], f.pages
			}
			deadNs += run(func(b *beat) bool { return b.kind == beatTail })
			fl.pages = livePages
			for i, f := range solid {
				f.pages, deadSolid[i] = deadSolid[i], f.pages
			}
		}
		b.ReportMetric(float64(predNs)/float64(predPts), "predictor-ns/point")
		b.ReportMetric(float64(tailNs)/float64(tailPts), "tail-ns/point")
		b.ReportMetric(float64(fluidNs)/float64(fluidPts), "fluid-tail-ns/point")
		b.ReportMetric(float64(deadNs)/float64(tailPts+fluidPts), "dead-page-ns/point")
	}
	b.Run("avx2", func(b *testing.B) {
		if !simd.Vector() {
			b.Skip("no AVX2 on this host")
		}
		bench(b)
	})
	b.Run("go", func(b *testing.B) {
		simd.ForceGo(b)
		bench(b)
	})
}
