//go:build linux

package solver

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"

	"specglobe/internal/simd"
)

// guarded copies a onto pages whose last byte is a's last byte; the page
// after them is PROT_NONE, so a load or store one value past the slice
// faults. The race detector and checkptr do not see into assembly; the
// MMU does. T holds no pointers.
func guarded[T any](t *testing.T, a []T) []T {
	t.Helper()
	size := int(unsafe.Sizeof(a[0]))
	page := syscall.Getpagesize()
	span := (size*len(a) + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, span+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // best-effort release at test end
	if err := syscall.Mprotect(mem[span:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	g := unsafe.Slice((*T)(unsafe.Pointer(&mem[span-size*len(a)])), len(a))
	copy(g, a)
	return g
}

// Both assembly stages with every array they touch ending flush against
// an unmapped page — the region's static arrays (so the last element's
// 125 floats are the last mapped ones), the memory variables and their
// coefficient tables, and the gradient and flux blocks: a read or write
// past the last element or past a block kills the test binary with
// SIGSEGV. The results must still be the Go bodies'.
func TestVectorStagesStayInsideArrays(t *testing.T) {
	if !simd.Vector() {
		t.Skip("no AVX2 on this host")
	}
	const nspec, nsls = 2, 3
	rng := rand.New(rand.NewSource(61))

	ref := newStressFixture(rng, nspec, nsls)
	vec := ref.clone()
	for _, a := range statics(vec.reg) {
		*a = guarded(t, *a)
	}
	vec.att.r = guarded(t, vec.att.r)
	vec.att.alpha = guarded(t, vec.att.alpha)
	vec.att.beta = guarded(t, vec.att.beta)
	vec.att.muFac = guarded(t, vec.att.muFac)
	block := func(b *compBlocks) *compBlocks { return (*compBlocks)(guarded(t, b[:])) }
	t1, t2, t3 := block(&ref.t1), block(&ref.t2), block(&ref.t3)
	s1, s2, s3 := block(&ref.s1), block(&ref.s2), block(&ref.s3)
	for _, e := range []int{0, nspec - 1} {
		stressStageVec(vec.reg, e, vec.att, t1, t2, t3, s1, s2, s3)
		stressStageGo(ref.reg, e, ref.att, &ref.t1, &ref.t2, &ref.t3, &ref.s1, &ref.s2, &ref.s3)
		compareLive(t, "s1", s1[:], ref.s1[:], true)
		compareLive(t, "s2", s2[:], ref.s2[:], true)
		compareLive(t, "s3", s3[:], ref.s3[:], true)
	}
	for i, v := range vec.att.r {
		if !sameBits(v, ref.att.r[i]) {
			t.Fatalf("r[%d]: assembly %g, Go %g", i, v, ref.att.r[i])
		}
	}

	// The fluid stage: Go body on ordinary memory first, then the
	// assembly on guarded copies of the same region and blocks.
	fl := newFluidFixture(rng, nspec)
	padded := func(src []float32) *[pad]float32 { return (*[pad]float32)(guarded(t, src)) }
	ft1, ft2, ft3 := padded(ref.t1[:pad]), padded(ref.t2[:pad]), padded(ref.t3[:pad])
	var want, zero [3][pad]float32
	for _, e := range []int{0, nspec - 1} {
		fluidStageGo(fl.reg, e, ft1, ft2, ft3, &want[0], &want[1], &want[2])
		greg := *fl.reg
		for _, a := range statics(&greg) {
			*a = guarded(t, *a)
		}
		g1, g2, g3 := padded(zero[0][:]), padded(zero[1][:]), padded(zero[2][:])
		fluidStageVec(&greg, e, ft1, ft2, ft3, g1, g2, g3)
		compareLive(t, "fluid s1", g1[:], want[0][:], true)
		compareLive(t, "fluid s2", g2[:], want[1][:], true)
		compareLive(t, "fluid s3", g3[:], want[2][:], true)
	}
}

// The point passes' assembly bodies with every array they read or write
// ending flush against an unmapped page — the solid field's state,
// inverse mass, ocean mask and gravity tables, the fluid field's, and
// the census's input — on lengths whose last block of 8 is the
// assembly's and on lengths the Go loop finishes, with every page live
// and with every page dead (so the dead-page test reads each
// acceleration to its end): a read or write past an array kills the
// test binary with SIGSEGV. The results must still be the Go loops'.
func TestVectorPointPassesStayInsideArrays(t *testing.T) {
	if !simd.Vector() {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(73))
	var vec, ref []*passCase
	for _, n := range []int{8, 13, livePage, 2*livePage + 7, 2*livePage + 8} {
		for _, live := range []bool{true, false} {
			c := newPassCase(rng, n, true, func(k int) bool { return k%3 == 0 })
			c.first = 0
			if !live {
				c.s.pages, c.fl.pages = newPageMarks(n), newPageMarks(n)
			}
			ref = append(ref, c.clone())
			s, fl := c.s, c.fl
			s.d, s.v, s.a, s.rhat = guarded(t, s.d), guarded(t, s.v), guarded(t, s.a), guarded(t, s.rhat)
			s.massInv, s.gOverR, s.dgdr, s.ocean = guarded(t, s.massInv), guarded(t, s.gOverR), guarded(t, s.dgdr), guarded(t, s.ocean)
			fl.chi, fl.chiDot, fl.chiDdot, fl.massInv = guarded(t, fl.chi), guarded(t, fl.chiDot), guarded(t, fl.chiDdot), guarded(t, fl.massInv)
			c.run(0.37, 1.5)
			vec = append(vec, c)
		}
	}
	scan := func(c *passCase) [4]int64 {
		pd, sd := census(flat(c.s.d))
		pc, sc := census(c.fl.chi)
		return [4]int64{int64(pd), sd + unflushed(flat(c.s.a)), int64(pc), sc + unflushed(c.fl.chiDdot)}
	}
	var got [][4]int64
	for _, c := range vec {
		got = append(got, scan(c))
	}
	simd.ForceGo(t)
	for i, c := range ref {
		c.run(0.37, 1.5)
		vec[i].compare(t, c)
		if want := scan(c); got[i] != want {
			t.Fatalf("n=%d: census %v, Go %v", c.end, got[i], want)
		}
	}
}
