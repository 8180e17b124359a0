package solver

import (
	"math"
	"math/rand"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
	"specglobe/internal/perf"
)

// quiescentElement is a one-element region with random metrics and
// materials, the identity Ibool, a displacement and potential of mixed
// +0/−0, and accumulators holding +0, positive and negative values —
// every value an accumulator can hold, since it is never −0. Its
// fields are built without page marks, so they count as all-live.
type quiescentElement struct {
	fx  *stressFixture
	sf  *solidField
	fl  *fluidField
	ib  []int32
	a0  [][3]float32
	dd0 []float32
}

func newQuiescentElement(rng *rand.Rand) *quiescentElement {
	fx := newStressFixture(rng, 1, earthmodel.DefaultNSLS)
	reg := fx.reg
	reg.Rho = make([]float32, len(reg.Ibool)) // the fluid field's visit reads it
	for p := range reg.Ibool {
		reg.Ibool[p] = int32(p)
		reg.Rho[p] = 5000 * (1 + rng.Float32())
	}
	for i := range fx.att.r {
		fx.att.r[i] = 0
	}
	fx.att.woke = make([]bool, 1)
	negZero := float32(math.Copysign(0, -1))
	signed := func() float32 {
		if rng.Intn(2) == 0 {
			return negZero
		}
		return 0
	}
	held := func(i int) float32 {
		return []float32{0, 1 + rng.Float32(), -1 - rng.Float32()}[i%3] * 1e3
	}
	q := &quiescentElement{fx: fx, ib: reg.Ibool,
		sf: &solidField{reg: reg, d: make([][3]float32, mesh.NGLL3), a: make([][3]float32, mesh.NGLL3), att: fx.att},
		fl: &fluidField{reg: reg, chi: make([]float32, mesh.NGLL3), chiDdot: make([]float32, mesh.NGLL3)},
	}
	for g := range q.sf.d {
		for c := range q.sf.d[g] {
			q.sf.d[g][c], q.sf.a[g][c] = signed(), held(g+c)
		}
		q.fl.chi[g], q.fl.chiDdot[g] = signed(), held(g)
	}
	q.a0 = append([][3]float32(nil), q.sf.a...)
	q.dd0 = append([]float32(nil), q.fl.chiDdot...)
	return q
}

// gather loads the element's displacement and potential into ks the way
// the chunks do.
func (q *quiescentElement) gather(ks *kernelScratch) {
	for p, g := range q.ib {
		u := &q.sf.d[g]
		ks.u[p], ks.u[pad+p], ks.u[2*pad+p] = u[0], u[1], u[2]
	}
}

// solidSame reports whether a is bitwise the starting acceleration.
func (q *quiescentElement) solidSame() bool {
	for g := range q.a0 {
		for c := range q.a0[g] {
			if math.Float32bits(q.sf.a[g][c]) != math.Float32bits(q.a0[g][c]) {
				return false
			}
		}
	}
	return true
}

// gatherSkip is a one-element chunk's count when its one field is
// skipped after the gather.
var gatherSkip = perf.Skips{Visits: 1, Elems: 1}

// The skip rule's exactness on both kernels and both bodies: a full
// visit of an element whose gathered field is all ±0 — solid with and
// without never-driven memory variables, and fluid — leaves every
// accumulator bit as it was and the memory variables at +0, so the
// chunks may skip it, and do, after the gather whatever the element's
// page marks say. The counter-case is an element whose displacement is zero but whose
// memory variables were driven: its visit is not skipped, on dead pages
// too, and it changes the acceleration.
func TestQuiescentVisitIsNoOp(t *testing.T) {
	bothBodies(t, func(t *testing.T) {
		for _, kv := range []Kernel{KernelVec4, KernelScalar} {
			t.Run(kv.String(), func(t *testing.T) {
				rs := &rankState{kern: newKernels(kv), ns: 1}
				ks := new(kernelScratch)
				cm, oc := int(earthmodel.RegionCrustMantle), int(earthmodel.RegionOuterCore)
				// chunk runs a one-element chunk of field sf's region.
				chunk := func(sf *solidField) perf.Skips {
					rs.solid[cm] = []*solidField{sf}
					return rs.forcesChunk(cm, ks, []int32{0})
				}
				rng := rand.New(rand.NewSource(31))

				for _, att := range []bool{false, true} {
					q := newQuiescentElement(rng)
					if !att {
						q.sf.att = nil
					}
					q.gather(ks)
					rs.kern.solidVisit(q.fx.reg, 0, q.ib, q.sf, ks)
					if !q.solidSame() {
						t.Errorf("att=%v: a full visit of a zero displacement changed a", att)
					}
					for i, r := range q.fx.att.r {
						if math.Float32bits(r) != 0 {
							t.Fatalf("memory variable %d is %g after a zero visit, want +0", i, r)
						}
					}
					if sk := chunk(q.sf); sk != gatherSkip {
						t.Errorf("att=%v: chunk skipped %+v, want %+v", att, sk, gatherSkip)
					}
					q.sf.pages = newPageMarks(mesh.NGLL3)
					ks.u[0] = 42
					if sk := chunk(q.sf); sk != gatherSkip || ks.u[0] == 42 {
						t.Errorf("att=%v: on dead pages the chunk skipped %+v (gathered: %v), want %+v after the gather", att, sk, ks.u[0] != 42, gatherSkip)
					}
					q.sf.pages.wake(0)
					if sk := chunk(q.sf); sk != gatherSkip {
						t.Errorf("att=%v: on a live page the chunk skipped %+v, want %+v", att, sk, gatherSkip)
					}
					if att && q.fx.att.woke[0] {
						t.Error("a skipped visit woke its element")
					}
				}

				q := newQuiescentElement(rng)
				chi := xBlock(&ks.u)
				for p, g := range q.ib {
					chi[p] = q.fl.chi[g]
				}
				rs.kern.fluidVisit(q.fx.reg, 0, q.ib, q.fl, ks)
				for g := range q.dd0 {
					if math.Float32bits(q.fl.chiDdot[g]) != math.Float32bits(q.dd0[g]) {
						t.Fatalf("a full visit of a zero potential changed chiDdot[%d]: %g -> %g", g, q.dd0[g], q.fl.chiDdot[g])
					}
				}
				rs.fluid = []*fluidField{q.fl}
				if sk := rs.forcesChunk(oc, ks, []int32{0}); sk != gatherSkip {
					t.Errorf("fluid chunk skipped %+v, want %+v", sk, gatherSkip)
				}
				q.fl.pages = newPageMarks(mesh.NGLL3)
				chi[0] = 42
				if sk := rs.forcesChunk(oc, ks, []int32{0}); sk != gatherSkip || chi[0] == 42 {
					t.Errorf("on dead pages the fluid chunk skipped %+v (gathered: %v), want %+v after the gather", sk, chi[0] != 42, gatherSkip)
				}

				// A visit that runs wakes its element.
				q = newQuiescentElement(rng)
				q.sf.d[0][0] = 1e-3
				if sk := chunk(q.sf); sk != (perf.Skips{}) || !q.fx.att.woke[0] {
					t.Errorf("a non-zero displacement's visit: skipped %+v, woke %v; want none, true", sk, q.fx.att.woke[0])
				}

				// Counter-case: u = 0 but r ≠ 0 on a woken element, whose
				// pages are dead.
				q = newQuiescentElement(rng)
				for i := range q.fx.att.r {
					q.fx.att.r[i] = float32(rng.NormFloat64()) * 1e3
				}
				q.fx.att.woke[0] = true
				q.sf.pages = newPageMarks(mesh.NGLL3)
				if sk := chunk(q.sf); sk != (perf.Skips{}) {
					t.Errorf("a woken element was skipped (%+v)", sk)
				}
				if q.solidSame() {
					t.Error("the visit of a woken element left a unchanged")
				}
			})
		}
	})
}

// The skip and the wake marks are per field: in a 3-field ensemble
// whose field 1 has no source term at all, field 1 records exactly zero
// and skips every visit, while fields 0 and 2 match their solo runs bit
// for bit and skip exactly the visits their solo runs skip.
func TestQuiescentFieldIsSkipped(t *testing.T) {
	g, model := coupledGlobe(t, 4, 1)
	const steps = 16
	srcs, recvs := batchGlobeSources(t, g, 3)
	srcs[1].MomentTensor, srcs[1].Force = [3][3]float64{}, [3]float64{}
	opts := Options{Steps: steps, Workers: 2, Attenuation: true}
	run := func(srcs []Source) *Result {
		res, err := Run(&Simulation{Locals: g.Locals, Plans: g.Plans, Model: model, Sources: srcs, Receivers: recvs, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	batched := run(srcs)
	nominal := map[string]int64{}
	for _, l := range g.Locals {
		for _, reg := range l.Regions {
			if reg != nil && reg.IsFluid() {
				nominal["force_fluid"] += steps * int64(reg.NSpec)
			} else if reg != nil {
				nominal["force_solid"] += steps * int64(reg.NSpec)
			}
		}
	}
	want := map[string]int64{"force_solid": nominal["force_solid"], "force_fluid": nominal["force_fluid"]}
	for _, i := range []int{0, 2} {
		single := srcs[i]
		single.Field = 0
		solo := run([]Source{single})
		for _, r := range recvs {
			identical(t, "src"+string(rune('0'+i))+"/"+r.Name, solo.Seismograms[r.Name], batched.BySource[i][r.Name])
		}
		for ph, n := range solo.Perf.SkippedVisits {
			want[ph] += n
		}
		if n := solo.Perf.SkippedVisits["force_solid"]; n >= nominal["force_solid"] {
			t.Fatalf("field %d's solo run skipped %d of %d solid visits: its wave never ran", i, n, nominal["force_solid"])
		}
	}
	for _, r := range recvs {
		sg := batched.BySource[1][r.Name]
		if maxAbs(sg.X)+maxAbs(sg.Y)+maxAbs(sg.Z) != 0 {
			t.Errorf("field 1 recorded a non-zero sample at %s", r.Name)
		}
	}
	for _, ph := range []string{"force_solid", "force_fluid"} {
		if got := batched.Perf.SkippedVisits[ph]; got != want[ph] {
			t.Errorf("%s: ensemble skipped %d visits, want the solo runs' plus all of field 1's: %d", ph, got, want[ph])
		}
	}
}
