package tensor

import "fmt"

// The GEMM kernels below share one structure: the output is walked in
// mr×nr tiles whose accumulators stay live for the whole k-extent of a
// panel, the k dimension is cut into kcBlock panels so the streamed operand
// stays cache-resident, and the parallel driver splits the output rows into
// tile-aligned panels across goroutines. gemmParallel only fans out when the
// problem is large enough to amortise goroutine startup (see
// parallelCutover); tiny matrices always run serially on the caller's
// goroutine.
const (
	// mrTile×nrTile is the micro-kernel tile gemm hands to kern4x8: on AVX
	// it is eight 4-wide vector accumulators, each a[i,p] broadcast once
	// and each b row loaded as two vectors per p.
	mrTile = 4
	nrTile = 8
	// kcBlock is the k-panel length; an 8-column stripe of b over one panel
	// is kcBlock×nrTile×8 bytes = 16 KiB, L1-resident.
	kcBlock = 256
	// parallelCutover is the minimum multiply-add count (m·n·k) before
	// MatMulParallel and friends spawn goroutines. Below it the fork/join
	// overhead outweighs the work: a 32×32×32 product is ~33k mul-adds and
	// runs in a few microseconds, the same order as a goroutine handoff.
	parallelCutover = 1 << 17
)

// MatMul returns the matrix product a×b of two 2-D tensors using the tiled
// serial kernel. It is shorthand for MatMulParallel(a, b, 1); use
// MatMulParallel (or the *Into / *Trans* variants) to bound the kernel by a
// task's computing units or to avoid allocating the result.
func MatMul(a, b *Tensor) *Tensor {
	return MatMulParallel(a, b, 1)
}

// MatMulParallel returns a×b using up to `units` goroutines. Output rows are
// partitioned into register-tile-aligned panels among workers — this mirrors
// how a training task in the paper exploits the computing units granted by
// its @constraint (Tensorflow intra-op parallelism) — but small products
// (m·n·k < parallelCutover) run serially regardless of units so tiny
// matrices never pay the fork/join overhead. units < 1 is treated as 1.
func MatMulParallel(a, b *Tensor, units int) *Tensor {
	m, _, n := mmShape(a, b)
	return MatMulInto(New(m, n), a, b, units)
}

// MatMulInto computes dst = a×b in place, overwriting dst (which must be
// m×n), and returns dst. It performs no allocations, letting steady-state
// training steps reuse one output buffer per layer.
func MatMulInto(dst, a, b *Tensor, units int) *Tensor {
	m, k, n := mmShape(a, b)
	checkInto(dst, m, n)
	if m == 0 || n == 0 {
		return dst
	}
	if k == 0 {
		dst.Zero()
		return dst
	}
	ad, bd, od := a.data, b.data, dst.data
	gemmParallel(m, k, n, units, func(lo, hi int) {
		gemm(ad, bd, od, k, 1, k, n, lo, hi)
	})
	return dst
}

// MatMulTransA returns aᵀ×b without materialising the transpose of a.
// a is k×m and b is k×n; the result is m×n. This is the Dense/Conv2D
// backward weight-gradient product (dW = xᵀ·grad).
func MatMulTransA(a, b *Tensor, units int) *Tensor {
	m, _, n := mmShapeTransA(a, b)
	return MatMulTransAInto(New(m, n), a, b, units)
}

// MatMulTransAInto computes dst = aᵀ×b in place (dst must be m×n for a of
// shape k×m and b of shape k×n) and returns dst.
func MatMulTransAInto(dst, a, b *Tensor, units int) *Tensor {
	m, k, n := mmShapeTransA(a, b)
	checkInto(dst, m, n)
	if m == 0 || n == 0 {
		return dst
	}
	if k == 0 {
		dst.Zero()
		return dst
	}
	ad, bd, od := a.data, b.data, dst.data
	gemmParallel(m, k, n, units, func(lo, hi int) {
		gemm(ad, bd, od, 1, m, k, n, lo, hi)
	})
	return dst
}

// MatMulTransB returns a×bᵀ without materialising the transpose of b.
// a is m×k and b is n×k; the result is m×n. This is the Dense/Conv2D
// backward input-gradient product (dX = grad·Wᵀ).
func MatMulTransB(a, b *Tensor, units int) *Tensor {
	m, _, n := mmShapeTransB(a, b)
	return MatMulTransBInto(New(m, n), a, b, units)
}

// MatMulTransBInto computes dst = a×bᵀ in place (dst must be m×n for a of
// shape m×k and b of shape n×k) and returns dst.
func MatMulTransBInto(dst, a, b *Tensor, units int) *Tensor {
	m, k, n := mmShapeTransB(a, b)
	checkInto(dst, m, n)
	if m == 0 || n == 0 {
		return dst
	}
	ad, bd, od := a.data, b.data, dst.data
	gemmParallel(m, k, n, units, func(lo, hi int) {
		gemmTB(ad, bd, od, k, n, lo, hi)
	})
	return dst
}

// AVXKernel reports whether MatMul*, MatMulInto and MatMulTransA* run
// their 4×8 tiles on the AVX assembly micro-kernel (amd64 CPUs with AVX)
// rather than the portable Go one. Results are bit-identical either way;
// only the speed differs.
func AVXKernel() bool { return useAVX }

func mmShape(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires 2-D tensors")
	}
	m, k = a.shape[0], a.shape[1]
	if k != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions do not match: %v × %v", a.shape, b.shape))
	}
	return m, k, b.shape[1]
}

func mmShapeTransA(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransA requires 2-D tensors")
	}
	k, m = a.shape[0], a.shape[1]
	if k != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimensions do not match: %vᵀ × %v", a.shape, b.shape))
	}
	return m, k, b.shape[1]
}

func mmShapeTransB(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransB requires 2-D tensors")
	}
	m, k = a.shape[0], a.shape[1]
	if k != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimensions do not match: %v × %vᵀ", a.shape, b.shape))
	}
	return m, k, b.shape[0]
}

func checkInto(dst *Tensor, m, n int) {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul*Into destination shape %v, want [%d %d]", dst.shape, m, n))
	}
}

// gemmParallel runs kernel over the output row range [0, m), split into
// register-tile-aligned panels across up to `units` goroutines. The cutover
// keeps small products serial: goroutine startup is the same order of
// magnitude as an entire small matmul.
func gemmParallel(m, k, n, units int, kernel func(lo, hi int)) {
	if units < 1 || m*n*k < parallelCutover {
		units = 1
	}
	tiles := (m + mrTile - 1) / mrTile
	if units > tiles {
		units = tiles
	}
	if units == 1 {
		kernel(0, m)
		return
	}
	chunk := (tiles + units - 1) / units * mrTile
	done := make(chan struct{}, units)
	workers := 0
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		workers++
		go func(lo, hi int) {
			kernel(lo, hi)
			done <- struct{}{}
		}(lo, hi)
	}
	for ; workers > 0; workers-- {
		<-done
	}
}

// gemm computes out[lo:hi, :] = A[lo:hi, :]×b for a k×n row-major b and an
// m×n out, where A is read through strides: A[i,p] = a[i·ars + p·aps]. The
// plain product passes (ars, aps) = (k, 1); the transposed-a product aᵀ×b
// passes (1, m), so neither orientation copies a.
//
// Every output element sums its products in ascending p, one multiply and
// one add at a time, which is what keeps the AVX and Go micro-kernels (and
// the scalar edge loops) bit-identical. Full 4×8 tiles go to kern4x8; the
// n%8 columns and the m%4 rows fall back to scalar loops. The first k-panel
// stores (overwriting whatever out held); later panels add their partial
// sums, except in the m%4 rows, which add each product to out directly.
func gemm(a, b, out []float64, ars, aps, k, n, lo, hi int) {
	for kb := 0; kb < k; kb += kcBlock {
		kEnd := min(kb+kcBlock, k)
		first := kb == 0
		i := lo
		for ; i+mrTile <= hi; i += mrTile {
			j := 0
			for ; j+nrTile <= n; j += nrTile {
				kern4x8(a[i*ars+kb*aps:], ars, aps, b[kb*n+j:], n, kEnd-kb, out[i*n+j:], first)
			}
			for ; j < n; j++ {
				var s0, s1, s2, s3 float64
				for p := kb; p < kEnd; p++ {
					bv := b[p*n+j]
					ap := a[i*ars+p*aps:]
					s0 += float64(ap[0] * bv)
					s1 += float64(ap[ars] * bv)
					s2 += float64(ap[2*ars] * bv)
					s3 += float64(ap[3*ars] * bv)
				}
				if first {
					out[(i+0)*n+j] = s0
					out[(i+1)*n+j] = s1
					out[(i+2)*n+j] = s2
					out[(i+3)*n+j] = s3
				} else {
					out[(i+0)*n+j] += s0
					out[(i+1)*n+j] += s1
					out[(i+2)*n+j] += s2
					out[(i+3)*n+j] += s3
				}
			}
		}
		for ; i < hi; i++ {
			orow := out[i*n : i*n+n]
			if first {
				clear(orow)
			}
			for p := kb; p < kEnd; p++ {
				av := a[i*ars+p*aps]
				brow := b[p*n : p*n+n]
				for j, bv := range brow {
					orow[j] += float64(av * bv)
				}
			}
		}
	}
}

// kern4x8Go is the portable 4×8 micro-kernel and the reference the AVX
// kernel is tested against. Over kc steps of p it forms
// C[r][c] = Σ A[r,p]·b[p·n+c] with A[r,p] = a[r·ars + p·aps], then stores C
// into c[r·n+c] when first is set and adds it otherwise. It walks the tile
// as two 4×4 halves so each half's 16 accumulators fit the register file as
// nearly as Go allows. The float64 conversions keep every product rounded
// on its own: Go may otherwise fuse a multiply-add into an FMA on some
// targets, and the AVX kernel never does.
func kern4x8Go(a []float64, ars, aps int, b []float64, n, kc int, c []float64, first bool) {
	for h := 0; h < nrTile; h += 4 {
		var c00, c01, c02, c03 float64
		var c10, c11, c12, c13 float64
		var c20, c21, c22, c23 float64
		var c30, c31, c32, c33 float64
		for p := 0; p < kc; p++ {
			ap := a[p*aps:]
			br := b[p*n+h : p*n+h+4]
			b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
			av := ap[0]
			c00 += float64(av * b0)
			c01 += float64(av * b1)
			c02 += float64(av * b2)
			c03 += float64(av * b3)
			av = ap[ars]
			c10 += float64(av * b0)
			c11 += float64(av * b1)
			c12 += float64(av * b2)
			c13 += float64(av * b3)
			av = ap[2*ars]
			c20 += float64(av * b0)
			c21 += float64(av * b1)
			c22 += float64(av * b2)
			c23 += float64(av * b3)
			av = ap[3*ars]
			c30 += float64(av * b0)
			c31 += float64(av * b1)
			c32 += float64(av * b2)
			c33 += float64(av * b3)
		}
		o0 := c[0*n+h : 0*n+h+4]
		o1 := c[1*n+h : 1*n+h+4]
		o2 := c[2*n+h : 2*n+h+4]
		o3 := c[3*n+h : 3*n+h+4]
		if first {
			o0[0], o0[1], o0[2], o0[3] = c00, c01, c02, c03
			o1[0], o1[1], o1[2], o1[3] = c10, c11, c12, c13
			o2[0], o2[1], o2[2], o2[3] = c20, c21, c22, c23
			o3[0], o3[1], o3[2], o3[3] = c30, c31, c32, c33
		} else {
			o0[0] += c00
			o0[1] += c01
			o0[2] += c02
			o0[3] += c03
			o1[0] += c10
			o1[1] += c11
			o1[2] += c12
			o1[3] += c13
			o2[0] += c20
			o2[1] += c21
			o2[2] += c22
			o2[3] += c23
			o3[0] += c30
			o3[1] += c31
			o3[2] += c32
			o3[3] += c33
		}
	}
}

// gemmTB computes out[lo:hi, :] = (a×bᵀ)[lo:hi, :] for a (m×k), b (n×k) and
// out (m×n). Every output element is a dot product of two contiguous rows,
// so the whole k-extent accumulates in registers and no k-blocking is
// needed; the tile always stores.
func gemmTB(a, b, out []float64, k, n, lo, hi int) {
	i := lo
	for ; i+mrTile <= hi; i += mrTile {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			var c20, c21, c22, c23 float64
			var c30, c31, c32, c33 float64
			for p := 0; p < k; p++ {
				bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
				av := a0[p]
				c00 += av * bv0
				c01 += av * bv1
				c02 += av * bv2
				c03 += av * bv3
				av = a1[p]
				c10 += av * bv0
				c11 += av * bv1
				c12 += av * bv2
				c13 += av * bv3
				av = a2[p]
				c20 += av * bv0
				c21 += av * bv1
				c22 += av * bv2
				c23 += av * bv3
				av = a3[p]
				c30 += av * bv0
				c31 += av * bv1
				c32 += av * bv2
				c33 += av * bv3
			}
			out[(i+0)*n+j], out[(i+0)*n+j+1], out[(i+0)*n+j+2], out[(i+0)*n+j+3] = c00, c01, c02, c03
			out[(i+1)*n+j], out[(i+1)*n+j+1], out[(i+1)*n+j+2], out[(i+1)*n+j+3] = c10, c11, c12, c13
			out[(i+2)*n+j], out[(i+2)*n+j+1], out[(i+2)*n+j+2], out[(i+2)*n+j+3] = c20, c21, c22, c23
			out[(i+3)*n+j], out[(i+3)*n+j+1], out[(i+3)*n+j+2], out[(i+3)*n+j+3] = c30, c31, c32, c33
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			var s0, s1, s2, s3 float64
			for p, bv := range brow {
				s0 += a0[p] * bv
				s1 += a1[p] * bv
				s2 += a2[p] * bv
				s3 += a3[p] * bv
			}
			out[(i+0)*n+j] = s0
			out[(i+1)*n+j] = s1
			out[(i+2)*n+j] = s2
			out[(i+3)*n+j] = s3
		}
	}
	for ; i < hi; i++ {
		arow := a[i*k : i*k+k]
		for j := 0; j < n; j++ {
			brow := b[j*k : j*k+k]
			s := 0.0
			for p, bv := range brow {
				s += arow[p] * bv
			}
			out[i*n+j] = s
		}
	}
}

// MatVec returns the matrix-vector product a×x where a is m×k and x has k
// elements; the result has m elements (shape m×1 flattened to [m]).
func MatVec(a, x *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: MatVec requires a 2-D matrix")
	}
	m, k := a.shape[0], a.shape[1]
	if x.Size() != k {
		panic(fmt.Sprintf("tensor: MatVec dimensions do not match: %v × %d-vector", a.shape, x.Size()))
	}
	out := New(m)
	for i := 0; i < m; i++ {
		s := 0.0
		row := a.data[i*k : (i+1)*k]
		for j := 0; j < k; j++ {
			s += row[j] * x.data[j]
		}
		out.data[i] = s
	}
	return out
}

// Dot returns the inner product of two tensors viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	if a.Size() != b.Size() {
		panic(fmt.Sprintf("tensor: Dot size mismatch %d vs %d", a.Size(), b.Size()))
	}
	s := 0.0
	for i := range a.data {
		s += a.data[i] * b.data[i]
	}
	return s
}
