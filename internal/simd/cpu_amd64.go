package simd

// cpuid executes CPUID with the given leaf (EAX) and sub-leaf (ECX).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

// detectAVX2 reports whether the vector bodies may run: the CPU decodes
// AVX2 (leaf 7 EBX bit 5) and the operating system saves the YMM state
// across context switches (OSXSAVE and AVX in leaf 1, XMM and YMM
// enabled in XCR0). x/sys/cpu does the same; it is not vendored here.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
