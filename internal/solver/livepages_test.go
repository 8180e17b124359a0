package solver

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

// onEveryStep installs fn as the step hook for the rest of the test.
// The hook runs on every rank's goroutine, so fn must be safe for
// concurrent use.
func onEveryStep(t *testing.T, fn func(rs *rankState, step int)) {
	t.Helper()
	stepHook = fn
	t.Cleanup(func() { stepHook = nil })
}

// pageStats are a field's point and page counts after a step.
type pageStats struct{ deadPts, livePages, deadPages int }

// checkPages asserts the page invariant on one field after a step and
// returns its counts: every point of a dead page has +0 d, v and
// acceleration, so every non-zero value sits on a live page; anyLive is set exactly when a page is live;
// and every woken element has a point on a live page.
func checkPages(pm *pageMarks, reg *mesh.Region, woke []bool, arrs map[string][]float32, width int) (pageStats, error) {
	var st pageStats
	for pg := range pm.live {
		lo, hi := pg*livePage, min((pg+1)*livePage, reg.NGlob)
		if pm.live[pg].Load() {
			st.livePages++
			continue
		}
		st.deadPages++
		st.deadPts += hi - lo
		for name, a := range arrs {
			for i, v := range a[lo*width : hi*width] {
				if math.Float32bits(v) != 0 {
					return st, fmt.Errorf("%s[%d] = %g on dead page %d", name, lo+i/width, v, pg)
				}
			}
		}
	}
	if pm.anyLive.Load() != (st.livePages > 0) {
		return st, fmt.Errorf("anyLive %v with %d live pages", pm.anyLive.Load(), st.livePages)
	}
	live := func(g int32) bool { return pm.isLive(int(g) / livePage) }
	for e, w := range woke {
		if w && !slices.ContainsFunc(reg.Ibool[e*mesh.NGLL3:(e+1)*mesh.NGLL3], live) {
			return st, fmt.Errorf("element %d woke with every page of its points dead", e)
		}
	}
	return st, nil
}

// rankPages checks every field of a rank (checkPages) and returns the
// solid and fluid counts, summed over fields and regions, and the counts
// of each ensemble field.
func rankPages(rs *rankState) (solid, fluid pageStats, byField []pageStats, err error) {
	byField = make([]pageStats, rs.ns)
	add := func(sum *pageStats, s int, st pageStats) {
		for _, p := range []*pageStats{sum, &byField[s]} {
			p.deadPts += st.deadPts
			p.livePages += st.livePages
			p.deadPages += st.deadPages
		}
	}
	for kind, fs := range rs.solid {
		for s, f := range fs {
			arrs := map[string][]float32{"d": flat(f.d), "v": flat(f.v), "a": flat(f.a)}
			var woke []bool
			if f.att != nil {
				woke = f.att.woke
			}
			st, e := checkPages(f.pages, f.reg, woke, arrs, 3)
			if e != nil {
				return solid, fluid, nil, fmt.Errorf("rank %d region %d field %d: %w", rs.rank, kind, s, e)
			}
			add(&solid, s, st)
		}
	}
	for s, fl := range rs.fluid {
		arrs := map[string][]float32{"chi": fl.chi, "chiDot": fl.chiDot, "chiDdot": fl.chiDdot}
		st, e := checkPages(fl.pages, fl.reg, nil, arrs, 1)
		if e != nil {
			return solid, fluid, nil, fmt.Errorf("rank %d fluid field %d: %w", rs.rank, s, e)
		}
		add(&fluid, s, st)
	}
	return solid, fluid, byField, nil
}

// The page marks' invariant, after every step of every rank: a dead
// page holds +0 alone (d, v and the acceleration), so the passes that
// skip it skip nothing but +0 arithmetic; and the marks move no bit —
// every seismogram equals, bit for bit, that of the same run with the
// marks dropped after the first step (every page live, every pass run).
// Checked on the full-physics doubled PREM globe (fluid core,
// attenuation, rotation, gravity, ocean load) and on a 3-field ensemble whose field 1 has a zero moment: that field
// keeps every page dead on every step and does no point work at all —
// the ensemble's skipped point visits are the solo runs' of fields 0
// and 2 plus every one of field 1's.
func TestLivePagesInvariant(t *testing.T) {
	// check runs sim with the invariant checked after every step, then
	// again with every page live from the second step on, and compares
	// the two runs' seismograms bit for bit. It fails unless both live
	// and dead pages were left after the last step.
	check := func(t *testing.T, sim *Simulation) *Result {
		t.Helper()
		var live, dead atomic.Int64
		onEveryStep(t, func(rs *rankState, step int) {
			solid, fluid, _, err := rankPages(rs)
			if err != nil {
				t.Errorf("step %d: %v", step, err)
				return
			}
			if step == sim.Opts.Steps-1 {
				live.Add(int64(solid.livePages + fluid.livePages))
				dead.Add(int64(solid.deadPages + fluid.deadPages))
			}
		})
		res, err := Run(sim)
		if err != nil {
			t.Fatal(err)
		}
		if live.Load() == 0 || dead.Load() == 0 {
			t.Errorf("%d live and %d dead pages at the end: the invariant was not exercised on both", live.Load(), dead.Load())
		}
		stepHook = func(rs *rankState, step int) {
			for _, fs := range rs.solid {
				for _, f := range fs {
					f.pages = nil
				}
			}
			for _, fl := range rs.fluid {
				fl.pages = nil
			}
		}
		ref, err := Run(sim)
		if err != nil {
			t.Fatal(err)
		}
		for s, m := range ref.BySource {
			for name, sg := range m {
				identical(t, fmt.Sprintf("field %d station %s", s, name), sg, res.BySource[s][name])
			}
		}
		return res
	}
	g, model := premDoubledGlobe(t)
	t.Run("prem-doubled", func(t *testing.T) {
		srcs, recvs := batchGlobeSources(t, g, 1)
		check(t, &Simulation{
			Locals: g.Locals, Plans: g.Plans, Model: model, Sources: srcs, Receivers: recvs,
			Opts: Options{Steps: 16, Workers: 2,
				Attenuation: true, Rotation: true, Gravity: true, OceanLoad: true},
		})
	})
	t.Run("ensemble-zero-field", func(t *testing.T) {
		const steps = 12
		g, model := coupledGlobe(t, 4, 1)
		srcs, recvs := batchGlobeSources(t, g, 3)
		srcs[1].MomentTensor, srcs[1].Force = [3][3]float64{}, [3]float64{}
		run := func(srcs []Source) *Result {
			res, err := Run(&Simulation{Locals: g.Locals, Plans: g.Plans, Model: model, Sources: srcs, Receivers: recvs,
				Opts: Options{Steps: steps, Workers: 2, Attenuation: true}})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		var field1Live atomic.Int64
		onEveryStep(t, func(rs *rankState, step int) {
			_, _, byField, err := rankPages(rs)
			if err != nil {
				t.Errorf("step %d: %v", step, err)
				return
			}
			field1Live.Add(int64(byField[1].livePages))
		})
		batched := run(srcs)
		if n := field1Live.Load(); n != 0 {
			t.Errorf("the zero-moment field had %d live pages over the run", n)
		}
		stepHook = nil
		var nominal int64 // field 1's point visits: predictor and tail
		for _, l := range g.Locals {
			for _, reg := range l.Regions {
				if reg != nil {
					nominal += 2 * steps * int64(reg.NGlob)
				}
			}
		}
		want := nominal
		for _, i := range []int{0, 2} {
			single := srcs[i]
			single.Field = 0
			want += run([]Source{single}).Perf.SkippedPoints["update"]
		}
		if got := batched.Perf.SkippedPoints["update"]; got != want {
			t.Errorf("ensemble skipped %d point visits, want the solo runs' plus all %d of field 1's: %d", got, nominal, want)
		}
	})
}

// deadTrace counts, through the step hook, the point visits a run's
// point passes find on dead pages, solid [0] and fluid [1]: the
// predictor of step k finds the pages dead that were dead after step
// k−1 (every page before step 0), the tails those still dead after step
// k. quiet counts the element visits of the force sweeps that were not
// dispatched: those of step k found their region as quiet as it was
// after step k−1 (every region before step 0).
type deadTrace struct {
	mu                sync.Mutex
	prev              map[int]deadCounts
	pred, tail, quiet [2]int64
}

// deadCounts are one rank's dead points and the element visits of its
// quiet regions, solid [0] and fluid [1].
type deadCounts struct{ pts, visits [2]int64 }

func traceDead(t *testing.T) *deadTrace {
	tr := &deadTrace{prev: map[int]deadCounts{}}
	onEveryStep(t, func(rs *rankState, step int) {
		solid, fluid, _, err := rankPages(rs)
		if err != nil {
			t.Errorf("step %d: %v", step, err)
			return
		}
		now := deadCounts{pts: [2]int64{int64(solid.deadPts), int64(fluid.deadPts)}}
		var start deadCounts
		for kind, reg := range rs.local.Regions {
			if reg == nil || reg.NSpec == 0 {
				continue
			}
			i := 0
			if kind == int(earthmodel.RegionOuterCore) {
				i = 1
			}
			start.pts[i] += int64(reg.NGlob * rs.ns)
			start.visits[i] += int64(reg.NSpec * rs.ns)
			if rs.quiet(kind) {
				now.visits[i] += int64(reg.NSpec * rs.ns)
			}
		}
		tr.mu.Lock()
		defer tr.mu.Unlock()
		prev, ok := tr.prev[rs.rank]
		if !ok {
			prev = start
		}
		for i := range now.pts {
			tr.pred[i] += prev.pts[i]
			tr.tail[i] += now.pts[i]
			tr.quiet[i] += prev.visits[i]
		}
		tr.prev[rs.rank] = now
	})
	return tr
}

// A NaN in the wavefield is an error of the run, found by the end-of-run
// census with the stability check off: the census walks live pages
// alone, and the tail that stored the NaN — it has set bits — marked its
// page live.
func TestNaNStateIsAnError(t *testing.T) {
	g, model := coupledGlobe(t, 4, 1)
	sim := globeSim(t, g, model, Options{Steps: 6, StabilityCheckEvery: 0})
	sim.Sources[0].MomentTensor[0][1] = math.NaN()
	res, err := Run(sim)
	if err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("a NaN moment tensor ran with error %v, want a NaN error", err)
	}
	if res == nil || !math.IsNaN(res.MaxDisplacement) {
		t.Error("the result does not report a NaN MaxDisplacement")
	}
}

// The passes on three pages — dead, dead, live: the predictor leaves
// the dead pages as they are, even an acceleration slot it would clear
// on a live page. The tail passes a dead page whose final acceleration
// is all +0 by, and marks live, and runs, a dead page that holds a −0 or
// a NaN.
func TestDeadPiecePasses(t *testing.T) {
	const n, live, dt = 3 * livePage, 2 * livePage, 0.25
	newField := func() *solidField {
		f := &solidField{reg: &mesh.Region{NGlob: n}, pages: newPageMarks(n),
			d: make([][3]float32, n), v: make([][3]float32, n), a: make([][3]float32, n),
			massInv: make([]float32, n), ocean: make([]bool, n)}
		for i := range f.massInv {
			f.massInv[i] = 0.5
		}
		f.pages.wake(2)
		for i := live; i < n; i++ {
			f.v[i], f.a[i] = [3]float32{1, 2, 3}, [3]float32{4, 5, 6}
		}
		return f
	}
	zero := func(v [3]float32) bool { return zeroBits(v[:]) }
	garbage := [3]float32{7, 8, 9}
	f := newField()
	f.a[3] = garbage
	if dead := f.predict(0, n, dt); dead != live {
		t.Errorf("predictor found %d dead points, want %d", dead, live)
	}
	for i := 0; i < live; i++ {
		if !zero(f.d[i]) || !zero(f.v[i]) {
			t.Fatalf("the predictor moved dead point %d: d %v, v %v", i, f.d[i], f.v[i])
		}
	}
	if f.a[3] != garbage {
		t.Errorf("dead slot a[3] = %v after the predictor, want %v", f.a[3], garbage)
	}
	if zero(f.d[live]) || !zero(f.a[live]) {
		t.Errorf("the live page did not run: d %v, a %v", f.d[live], f.a[live])
	}

	f.a[3] = [3]float32{}
	f.a[livePage+5][1] = float32(math.Copysign(0, -1))
	if dead := f.tail(0, n, dt, 0); dead != livePage {
		t.Errorf("tail found %d dead points, want %d", dead, livePage)
	}
	if f.pages.isLive(0) || !f.pages.isLive(1) || !f.pages.anyLive.Load() {
		t.Errorf("after the tail pages 0, 1 live = %v, %v; want false, true", f.pages.isLive(0), f.pages.isLive(1))
	}
	if !zero(f.a[livePage+5]) {
		t.Errorf("the woken page's −0 was not flushed to +0: %v", f.a[livePage+5])
	}

	f = newField()
	f.a[7][2] = float32(math.NaN())
	f.tail(0, n, dt, 0)
	if !f.pages.isLive(0) || !math.IsNaN(float64(f.a[7][2])) {
		t.Errorf("a NaN acceleration left its page dead (%v) or was changed (%g)", !f.pages.isLive(0), f.a[7][2])
	}
}
