//go:build linux

package simd

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns n floats whose last byte is the last byte of a
// readable page; the page after it is PROT_NONE, so a load or store one
// float past the slice faults. The race detector and checkptr do not
// see into assembly; the MMU does.
func guardedFloats(t testing.TB, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	if 4*n > page {
		t.Fatalf("guardedFloats: %d floats do not fit a %d-byte page", n, page)
	}
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // best-effort release at test end
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[page-4*n])), n)
}

// The vector contractions on blocks that end flush against an unmapped
// page: a read past u[127] or a write past out[127] kills the test
// binary with SIGSEGV.
func TestVectorContractionsStayInsideBlocks(t *testing.T) {
	if !Vector() {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(3))
	m := testMatrix()
	cols := Columns4(m)
	u, out := guardedFloats(t, PadLen), guardedFloats(t, PadLen)
	copy(u, testBlock(rng, false))
	for dir := 1; dir <= 3; dir++ {
		want := nanBlock()
		goApply(dir, m, &cols, u, want)
		vecApply(dir, m, &cols, u, out)
		for p := 0; p < BlockLen; p++ {
			if !sameBits(out[p], want[p]) {
				t.Fatalf("dir %d lane %d: %g, want %g", dir, p, out[p], want[p])
			}
		}
	}
}
