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
)

// stepBeats builds every rank of sim and returns rank's beat names.
func stepBeats(t *testing.T, sim *Simulation, rank int) []string {
	t.Helper()
	opts := sim.Opts.withDefaults()
	dt := mesh.StableDt(sim.Locals, mesh.Courant)
	p := newPool(1, 1)
	defer p.close()
	var names []string
	mpi.NewWorldWith(len(sim.Locals), opts.Network).Run(func(c *mpi.Comm) {
		rs := newRankState(c, sim, &opts, dt, nil, nil, p, newKernels(opts.Kernel), 1)
		if c.Rank() == rank {
			for _, b := range rs.beats {
				names = append(names, b.Name)
			}
		}
	})
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
// load, the record. A rank posts and finishes every halo set its step
// exchanges — the combined solid set, or the two solid regions one
// after the other — whether it carries the region or not (the tags stay
// aligned); every other beat is there only where the rank has something
// for it to do: a region's passes and sweeps where it carries the
// region, the coupling with a fluid, the traction and sources with a
// fluid or a source, the ocean load with a water column, the record with
// a receiver. Every rank of the meshed globes carries all three
// regions; the box world carries the crust/mantle alone.
func TestStepBeats(t *testing.T) {
	fluid := []string{"outer_forces/outer_core", "coupling", "post/outer_core", "inner_forces/outer_core",
		"finish/outer_core", "tail/outer_core", "outer_forces/crust_mantle", "outer_forces/inner_core", "traction+sources"}
	solid := []string{"inner_forces/crust_mantle", "inner_forces/inner_core"}
	tails := []string{"tail/crust_mantle", "tail/inner_core"}
	globe := func(post, finish []string, end ...string) []string {
		all := []string{"predict/crust_mantle", "predict/outer_core", "predict/inner_core"}
		all = append(append(append(all, fluid...), post...), solid...)
		return append(append(append(all, finish...), tails...), end...)
	}
	prem := func(t *testing.T, combined bool) []string {
		g, model := premDoubledGlobe(t)
		sim := globeSim(t, g, model, Options{CombinedSolidHalo: combined, OceanLoad: true})
		// The receiver in the source's element: one rank has both.
		sim.Receivers[0].Rank, sim.Receivers[0].Kind, sim.Receivers[0].Elem = sim.Sources[0].Rank, sim.Sources[0].Kind, sim.Sources[0].Elem
		return stepBeats(t, sim, sim.Sources[0].Rank)
	}
	t.Run("prem/combined", func(t *testing.T) {
		want := globe([]string{"post/solid"}, []string{"finish/solid"}, "ocean", "record")
		if got := prem(t, true); !slices.Equal(got, want) {
			t.Errorf("beats\n%s\nwant\n%s", strings.Join(got, " "), strings.Join(want, " "))
		}
	})
	t.Run("prem/separate", func(t *testing.T) {
		want := globe([]string{"post/crust_mantle", "post/inner_core"},
			[]string{"finish/crust_mantle", "finish/inner_core"}, "ocean", "record")
		if got := prem(t, false); !slices.Equal(got, want) {
			t.Errorf("beats\n%s\nwant\n%s", strings.Join(got, " "), strings.Join(want, " "))
		}
	})
	t.Run("earthlike24", func(t *testing.T) {
		g, model := earthlike24(t)
		sim := &Simulation{Locals: g.Locals, Plans: g.Plans, Model: model, Opts: Options{CombinedSolidHalo: true, OceanLoad: true}}
		want := globe([]string{"post/solid"}, []string{"finish/solid"})
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
			"traction+sources", "post/crust_mantle", "post/inner_core", "inner_forces/crust_mantle",
			"finish/crust_mantle", "finish/inner_core", "tail/crust_mantle"}
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
// gravity and the ocean load) per point they pass: the predictor beats
// (solid and fluid), the solid tail beats with the ocean beat and the
// fluid tail beat; the sub-benchmark is named one-level so its results
// compare with earlier recorded runs. Before each pass a 32 MB stream
// evicts the rank's arrays from the private caches, as the force stage
// does in a real step; one pool worker. It is the Go baseline a vector
// body of the passes is measured against.
func BenchmarkPointPasses(b *testing.B) {
	g, model := premDoubledGlobe(b)
	grav := earthmodel.NewGravityProfile(model, 2000)
	evict := make([]byte, 32<<20)
	b.Run("one-level", func(b *testing.B) {
		opts := Options{Steps: 1, CombinedSolidHalo: true,
			Rotation: true, Gravity: true, OceanLoad: true}.withDefaults()
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
		var predNs, tailNs, fluidNs time.Duration
		var predPts, tailPts, fluidPts int
		// run times the rank's beats of one step that match.
		oc := int(earthmodel.RegionOuterCore)
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
			predNs += run(func(b *beat) bool { return b.kind == beatPredict })
			tailNs += run(func(b *beat) bool { return b.kind == beatTail && b.region != oc || b.kind == beatOcean })
			fluidNs += run(func(b *beat) bool { return b.kind == beatTail && b.region == oc })
		}
		b.ReportMetric(float64(predNs)/float64(predPts), "predictor-ns/point")
		b.ReportMetric(float64(tailNs)/float64(tailPts), "tail-ns/point")
		b.ReportMetric(float64(fluidNs)/float64(fluidPts), "fluid-tail-ns/point")
	})
}
