package solver

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"specglobe/internal/simd"
)

// passCase is one solid and one fluid field of n points with every
// array the point passes read, the range [first, end) they run over and
// the dead point counts they returned: the solid tail and predictor,
// then the fluid tail and predictor.
type passCase struct {
	s          *solidField
	fl         *fluidField
	first, end int
	dead       [4]int
}

// newPassCase fills a case of n points with random values, about one in
// four replaced by a special one. Its pages are live, or dead with +0
// state, or dead with +0 state but for one value of the acceleration
// that has a set bit — so the tails' dead-page test meets every answer.
func newPassCase(rng *rand.Rand, n int, gravity bool, ocean func(k int) bool) *passCase {
	s := &solidField{
		d: make([][3]float32, n), v: make([][3]float32, n), a: make([][3]float32, n),
		massInv: make([]float32, n), ocean: make([]bool, n), pages: newPageMarks(n),
	}
	fl := &fluidField{chi: make([]float32, n), chiDot: make([]float32, n), chiDdot: make([]float32, n),
		massInv: make([]float32, n), pages: newPageMarks(n)}
	random := func(arrs ...[]float32) {
		for _, a := range arrs {
			for i := range a {
				a[i] = float32(rng.NormFloat64())
			}
		}
		seed(rng, arrs...)
	}
	random(flat(s.d), flat(s.v), flat(s.a), s.massInv, fl.chi, fl.chiDot, fl.chiDdot, fl.massInv)
	for k := range s.ocean {
		s.ocean[k] = ocean(k)
	}
	if gravity {
		s.gOverR, s.dgdr, s.rhat = make([]float32, n), make([]float32, n), make([][3]float32, n)
		random(s.gOverR, s.dgdr, flat(s.rhat))
	}
	for pg := 0; pg*livePage < n; pg++ {
		lo, hi := pg*livePage, min(n, (pg+1)*livePage)
		state := rng.Intn(3)
		if state == 0 {
			s.pages.wake(pg)
			fl.pages.wake(pg)
			continue
		}
		for _, a := range [][]float32{flat(s.d[lo:hi]), flat(s.v[lo:hi]), flat(s.a[lo:hi]),
			fl.chi[lo:hi], fl.chiDot[lo:hi], fl.chiDdot[lo:hi]} {
			clear(a)
		}
		if state == 2 {
			nonzero := special[1:] // all but +0
			flat(s.a[lo:hi])[rng.Intn(3*(hi-lo))] = nonzero[rng.Intn(len(nonzero))]
			fl.chiDdot[lo+rng.Intn(hi-lo)] = nonzero[rng.Intn(len(nonzero))]
		}
	}
	return &passCase{s: s, fl: fl, first: n % 5, end: n}
}

// clone deep-copies the case's state and page marks.
func (c *passCase) clone() *passCase {
	marks := func(m *pageMarks) *pageMarks {
		o := newPageMarks(len(m.live) * livePage)
		for pg := range m.live {
			if m.isLive(pg) {
				o.wake(pg)
			}
		}
		return o
	}
	s, fl := *c.s, *c.fl
	s.d, s.v, s.a = slices.Clone(s.d), slices.Clone(s.v), slices.Clone(s.a)
	s.pages, fl.pages = marks(s.pages), marks(fl.pages)
	fl.chi, fl.chiDot, fl.chiDdot = slices.Clone(fl.chi), slices.Clone(fl.chiDot), slices.Clone(fl.chiDdot)
	return &passCase{s: &s, fl: &fl, first: c.first, end: c.end}
}

// run runs the tails and then the predictors of the case.
func (c *passCase) run(dt, twoOmega float32) {
	c.dead[0] = c.s.tail(c.first, c.end, dt, twoOmega)
	c.dead[1] = c.s.predict(c.first, c.end, dt)
	c.dead[2] = c.fl.tail(c.first, c.end, dt)
	c.dead[3] = c.fl.predict(c.first, c.end, dt)
}

// compare fails on the first value, page mark or dead count where the
// case differs from ref.
func (c *passCase) compare(t *testing.T, ref *passCase) {
	t.Helper()
	n := c.end
	if c.dead != ref.dead {
		t.Fatalf("n=%d: dead counts %v, Go %v", n, c.dead, ref.dead)
	}
	for _, m := range [][2]*pageMarks{{c.s.pages, ref.s.pages}, {c.fl.pages, ref.fl.pages}} {
		for pg := range m[0].live {
			if m[0].isLive(pg) != m[1].isLive(pg) {
				t.Fatalf("n=%d: page %d live %v, Go %v", n, pg, m[0].isLive(pg), m[1].isLive(pg))
			}
		}
		if m[0].quiet() != m[1].quiet() {
			t.Fatalf("n=%d: quiet %v, Go %v", n, m[0].quiet(), m[1].quiet())
		}
	}
	for _, a := range []struct {
		name     string
		vec, ref []float32
	}{
		{"d", flat(c.s.d), flat(ref.s.d)}, {"v", flat(c.s.v), flat(ref.s.v)}, {"a", flat(c.s.a), flat(ref.s.a)},
		{"chi", c.fl.chi, ref.fl.chi}, {"chiDot", c.fl.chiDot, ref.fl.chiDot}, {"chiDdot", c.fl.chiDdot, ref.fl.chiDdot},
	} {
		for i, v := range a.vec {
			if g := a.ref[i]; !sameBits(v, g) {
				t.Fatalf("n=%d: %s[%d]: assembly %g (%#08x), Go %g (%#08x)", n, a.name, i,
					v, math.Float32bits(v), g, math.Float32bits(g))
			}
		}
	}
}

// The point passes' assembly bodies against their Go loops, bit for bit:
// the solid tail with rotation on and off and gravity on and off, with
// ocean masks all true, all false and alternating, the fluid tail, both
// predictors on their flat views, over every length from 0 to two pages
// and 7 points (so every remainder of 8 meets the Go loop, and a pass
// crosses pages), on values seeded with signed zeros, subnormals, normals
// on both sides of 2^-80, infinities and NaN. Every array, every page
// mark and every dead count is compared. So are the dead-page test, on a
// lone set bit at every position, and the state census.
func TestVectorPointPassesMatchGo(t *testing.T) {
	if !simd.Vector() {
		t.Skip("no AVX2 on this host")
	}
	const dt, maxLen = 0.37, 2*livePage + 7
	oceans := []struct {
		name string
		at   func(k int) bool
	}{
		{"none", func(int) bool { return false }},
		{"all", func(int) bool { return true }},
		{"every", func(k int) bool { return k%2 == 1 }},
	}
	for _, twoOmega := range []float32{0, 1.5} {
		for _, gravity := range []bool{false, true} {
			for i, ocean := range oceans {
				t.Run(fmt.Sprintf("rotation=%v/gravity=%v/ocean=%s", twoOmega != 0, gravity, ocean.name), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(i) + int64(twoOmega*10)))
					var vec, ref []*passCase
					for n := 0; n <= maxLen; n++ {
						c := newPassCase(rng, n, gravity, ocean.at)
						ref = append(ref, c.clone())
						c.run(dt, twoOmega)
						vec = append(vec, c)
					}
					simd.ForceGo(t)
					for i, c := range ref {
						c.run(dt, twoOmega)
						vec[i].compare(t, c)
					}
				})
			}
		}
	}

	t.Run("dead-page-test", func(t *testing.T) {
		check := func(a []float32, want bool) {
			t.Helper()
			if got := zeroBits(a); got != want {
				t.Fatalf("zeroBits of %d values %v: %v, want %v", len(a), a, got, want)
			}
		}
		a := make([]float32, 3*maxLen)
		for n := 0; n <= len(a); n++ {
			check(a[:n], true)
			for i := 0; i < n; i++ {
				a[i] = math.Float32frombits(uint32(1) << (i % 32))
				check(a[:n], false)
				a[i] = 0
			}
		}
	})

	t.Run("census", func(t *testing.T) {
		rng := rand.New(rand.NewSource(71))
		var arrs [][]float32
		type result struct {
			peak      uint32
			sub, unfl int64
		}
		var got []result
		for n := 0; n <= 3*maxLen; n++ {
			a := make([]float32, n)
			for i := range a {
				a[i] = float32(rng.NormFloat64()) * 0x1p-80
			}
			seed(rng, a)
			arrs = append(arrs, a)
			peak, sub := census(a)
			got = append(got, result{peak, sub, unflushed(a)})
		}
		simd.ForceGo(t)
		for i, a := range arrs {
			peak, sub := census(a)
			if want := (result{peak, sub, unflushed(a)}); got[i] != want {
				t.Fatalf("n=%d: census (peak %#08x, subnormals %d, unflushed %d), Go (%#08x, %d, %d)",
					len(a), got[i].peak, got[i].sub, got[i].unfl, want.peak, want.sub, want.unfl)
			}
		}
	})
}
