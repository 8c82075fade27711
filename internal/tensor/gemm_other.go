//go:build !amd64

package tensor

// useAVX is always false off amd64, where there is no assembly kernel.
var useAVX = false

func kern4x8(a []float64, ars, aps int, b []float64, n, kc int, c []float64, first bool) {
	kern4x8Go(a, ars, aps, b, n, kc, c, first)
}
