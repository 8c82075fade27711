package tensor

// useAVX selects kern4x8AVX. It is set once, at package init, from a
// CPUID/XGETBV probe: the CPU must implement AVX and the OS must save the
// YMM registers across context switches. Tests clear it to run the Go
// reference kernel.
var useAVX = hasAVX()

func kern4x8(a []float64, ars, aps int, b []float64, n, kc int, c []float64, first bool) {
	if useAVX {
		// The assembly does no bounds checks: touch the last element of
		// each operand it reads or writes, so a bad call panics here
		// instead of corrupting memory.
		_, _, _ = a[3*ars+(kc-1)*aps], b[(kc-1)*n+nrTile-1], c[(mrTile-1)*n+nrTile-1]
		kern4x8AVX(a, ars, aps, b, n, kc, c, first)
		return
	}
	kern4x8Go(a, ars, aps, b, n, kc, c, first)
}

// kern4x8AVX is kern4x8Go in AVX assembly (gemm_amd64.s). It performs the
// same separately rounded multiplies and adds in the same order, so its
// results are bit-identical. It requires kc >= 1 and does no bounds checks.
//
//go:noescape
func kern4x8AVX(a []float64, ars, aps int, b []float64, n, kc int, c []float64, first bool)

// hasAVX reports whether the CPU implements AVX and the OS has enabled the
// YMM state (CPUID.1:ECX.OSXSAVE and .AVX, and XCR0 bits 1 and 2).
func hasAVX() bool
