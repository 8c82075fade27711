package tensor

import (
	"testing"
	"testing/quick"
)

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !c.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", c.Data(), want.Data())
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := NewRNG(1)
	a := Randn(r, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	if !MatMul(a, id).AllClose(a, 1e-12) {
		t.Fatal("A×I != A")
	}
	if !MatMul(id, a).AllClose(a, 1e-12) {
		t.Fatal("I×A != A")
	}
}

func TestMatMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inner dimension mismatch")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	r := NewRNG(7)
	for _, units := range []int{2, 3, 4, 8, 100} {
		a := Randn(r, 17, 13)
		b := Randn(r, 13, 9)
		serial := MatMulParallel(a, b, 1)
		par := MatMulParallel(a, b, units)
		if !serial.AllClose(par, 1e-9) {
			t.Fatalf("units=%d: parallel result differs from serial", units)
		}
	}
}

func TestMatMulEmpty(t *testing.T) {
	c := MatMul(New(0, 3), New(3, 4))
	if c.Dim(0) != 0 || c.Dim(1) != 4 {
		t.Fatalf("empty matmul shape = %v", c.Shape())
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	x := FromSlice([]float64{1, 1}, 2)
	y := MatVec(a, x)
	if y.Data()[0] != 3 || y.Data()[1] != 7 {
		t.Fatalf("MatVec = %v", y.Data())
	}
}

func TestDot(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
}

// Property: (A×B)ᵀ == Bᵀ×Aᵀ for random shapes and values.
func TestMatMulTransposeProperty(t *testing.T) {
	r := NewRNG(42)
	f := func(seed uint64) bool {
		rr := NewRNG(seed)
		m, k, n := 1+rr.Intn(8), 1+rr.Intn(8), 1+rr.Intn(8)
		a := Randn(r, m, k)
		b := Randn(r, k, n)
		lhs := MatMul(a, b).Transpose()
		rhs := MatMul(b.Transpose(), a.Transpose())
		return lhs.AllClose(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication distributes over addition:
// A×(B+C) == A×B + A×C.
func TestMatMulDistributivityProperty(t *testing.T) {
	r := NewRNG(43)
	f := func(seed uint64) bool {
		rr := NewRNG(seed)
		m, k, n := 1+rr.Intn(6), 1+rr.Intn(6), 1+rr.Intn(6)
		a := Randn(r, m, k)
		b := Randn(r, k, n)
		c := Randn(r, k, n)
		lhs := MatMul(a, b.Add(c))
		rhs := MatMul(a, b).Add(MatMul(a, c))
		return lhs.AllClose(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: parallel and serial matmul agree for arbitrary unit counts.
func TestMatMulParallelAgreementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rr := NewRNG(seed)
		m, k, n := 1+rr.Intn(12), 1+rr.Intn(12), 1+rr.Intn(12)
		units := 1 + rr.Intn(16)
		a := Randn(rr, m, k)
		b := Randn(rr, k, n)
		return MatMulParallel(a, b, units).AllClose(MatMulParallel(a, b, 1), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// matmulRef is the naive triple-loop reference the tiled kernels are checked
// against: an independent implementation, deliberately free of tiling,
// panels, or unrolling.
func matmulRef(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	ad, bd, od := a.Data(), b.Data(), out.Data()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += ad[i*k+p] * bd[p*n+j]
			}
			od[i*n+j] = s
		}
	}
	return out
}

// edgeShapes exercises the kernel's remainder paths: empty output, k=1,
// single rows/columns, tall-skinny and short-fat panels, shapes straddling
// the 4×4 register tile and the 256-wide k panel, and non-divisible
// remainders in every dimension.
var edgeShapes = [][3]int{
	{0, 3, 4}, {3, 0, 4}, {3, 4, 0},
	{1, 1, 1}, {1, 7, 1}, {5, 1, 5},
	{4, 4, 4}, {5, 5, 5}, {7, 9, 11},
	{4, 256, 4}, {4, 257, 4}, {3, 511, 2},
	{129, 3, 2}, {2, 3, 129}, {65, 17, 33},
	{100, 1, 100}, {31, 258, 29},
}

// TestMatMulVariantsMatchReference pins every kernel entry point — serial
// tiled, parallel, TransA, TransB and the *Into forms — to the naive
// reference within 1e-9 across the edge shapes. Run under -race in CI, this
// also checks the row-panel fan-out for data races.
func TestMatMulVariantsMatchReference(t *testing.T) {
	r := NewRNG(99)
	for _, sh := range edgeShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := Randn(r, m, k)
		b := Randn(r, k, n)
		want := matmulRef(a, b)
		for _, units := range []int{1, 3, 8} {
			if got := MatMulParallel(a, b, units); !got.AllClose(want, 1e-9) {
				t.Fatalf("MatMulParallel(%v, units=%d) differs from reference", sh, units)
			}
			// Into on a dirty destination: stale contents must be overwritten.
			dst := Full(42, m, n)
			if got := MatMulInto(dst, a, b, units); !got.AllClose(want, 1e-9) {
				t.Fatalf("MatMulInto(%v, units=%d) differs from reference", sh, units)
			}
			// aᵀ×b via TransA, handing the kernel a k×m operand.
			at := a.Transpose()
			if got := MatMulTransA(at, b, units); !got.AllClose(want, 1e-9) {
				t.Fatalf("MatMulTransA(%v, units=%d) differs from reference", sh, units)
			}
			dst = Full(-7, m, n)
			if got := MatMulTransAInto(dst, at, b, units); !got.AllClose(want, 1e-9) {
				t.Fatalf("MatMulTransAInto(%v, units=%d) differs from reference", sh, units)
			}
			// a×bᵀ via TransB, handing the kernel an n×k operand.
			bt := b.Transpose()
			if got := MatMulTransB(a, bt, units); !got.AllClose(want, 1e-9) {
				t.Fatalf("MatMulTransB(%v, units=%d) differs from reference", sh, units)
			}
			dst = Full(1e9, m, n)
			if got := MatMulTransBInto(dst, a, bt, units); !got.AllClose(want, 1e-9) {
				t.Fatalf("MatMulTransBInto(%v, units=%d) differs from reference", sh, units)
			}
		}
	}
}

// TestAVXKernelBitIdenticalToGo runs MatMulInto and MatMulTransAInto on
// the AVX micro-kernel and on the Go one and requires every element to be
// equal with ==: the edge shapes, k past one and two kcBlock panels (panel
// accumulation), n%8 and m%4 remainders, several unit counts, and dirty
// destinations.
func TestAVXKernelBitIdenticalToGo(t *testing.T) {
	if !useAVX {
		t.Skip("CPU has no AVX: only the Go kernel runs here")
	}
	shapes := append([][3]int{
		{8, 513, 8}, {5, 600, 17}, {4, 300, 12}, {9, 10, 19},
		{12, 257, 9}, {32, 784, 64}, {19, 33, 31},
	}, edgeShapes...)
	r := NewRNG(5)
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := Randn(r, m, k)
		at := a.Transpose()
		b := Randn(r, k, n)
		for _, units := range []int{1, 3, 8} {
			products := func(avx bool) (nn, ta *Tensor) {
				defer SetAVXKernel(avx)()
				return MatMulInto(Full(42, m, n), a, b, units), MatMulTransAInto(Full(-7, m, n), at, b, units)
			}
			goNN, goTA := products(false)
			avxNN, avxTA := products(true)
			for i := range goNN.data {
				if goNN.data[i] != avxNN.data[i] || goTA.data[i] != avxTA.data[i] {
					t.Fatalf("%v units=%d element %d: Go NN %v TA %v, AVX NN %v TA %v", sh, units, i,
						goNN.data[i], goTA.data[i], avxNN.data[i], avxTA.data[i])
				}
			}
		}
	}
}

// Property: random shapes (biased to tile remainders) and unit counts agree
// with the reference for all variants.
func TestMatMulVariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rr := NewRNG(seed)
		m, k, n := 1+rr.Intn(70), 1+rr.Intn(300), 1+rr.Intn(70)
		units := 1 + rr.Intn(8)
		a := Randn(rr, m, k)
		b := Randn(rr, k, n)
		want := matmulRef(a, b)
		return MatMulParallel(a, b, units).AllClose(want, 1e-9) &&
			MatMulTransA(a.Transpose(), b, units).AllClose(want, 1e-9) &&
			MatMulTransB(a, b.Transpose(), units).AllClose(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransShapeMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"TransA": func() { MatMulTransA(New(3, 2), New(4, 5), 1) },
		"TransB": func() { MatMulTransB(New(2, 3), New(5, 4), 1) },
		"Into":   func() { MatMulInto(New(9, 9), New(2, 3), New(3, 4), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic for shape mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func benchGFLOPS(b *testing.B, size int, fn func(x, y *Tensor)) {
	benchShapeGFLOPS(b, [2]int{size, size}, [2]int{size, size}, size*size*size, fn)
}

// benchShapeGFLOPS times fn on random operands of shapes xs and ys and
// reports GFLOP/s for a product of mulAdds multiply-adds.
func benchShapeGFLOPS(b *testing.B, xs, ys [2]int, mulAdds int, fn func(x, y *Tensor)) {
	r := NewRNG(1)
	x := Randn(r, xs[0], xs[1])
	y := Randn(r, ys[0], ys[1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(x, y)
	}
	b.ReportMetric(2*float64(mulAdds)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkDenseForward and BenchmarkDenseWeightGrad time the two products
// that dominate a grid-search trial: the 784→64 Dense layer's forward pass
// (32×784 batch × 784×64 weights) and its weight gradient (dW = xᵀ·grad,
// 784×32 × 32×64), each at batch 32 on one unit.
func BenchmarkDenseForward(b *testing.B) {
	dst := New(32, 64)
	benchShapeGFLOPS(b, [2]int{32, 784}, [2]int{784, 64}, 32*784*64, func(x, w *Tensor) { MatMulInto(dst, x, w, 1) })
}

func BenchmarkDenseWeightGrad(b *testing.B) {
	dst := New(784, 64)
	benchShapeGFLOPS(b, [2]int{32, 784}, [2]int{32, 64}, 784*32*64, func(x, g *Tensor) { MatMulTransAInto(dst, x, g, 1) })
}

// BenchmarkMatMulNaive pins the pre-tiling reference kernel so the speedup
// of the blocked kernel stays visible in bench output.
func BenchmarkMatMulNaive(b *testing.B) {
	benchGFLOPS(b, 128, func(x, y *Tensor) { matmulRef(x, y) })
}

func BenchmarkMatMulTransA(b *testing.B) {
	benchGFLOPS(b, 128, func(x, y *Tensor) { MatMulTransA(x, y, 1) })
}

func BenchmarkMatMulTransB(b *testing.B) {
	benchGFLOPS(b, 128, func(x, y *Tensor) { MatMulTransB(x, y, 1) })
}

func BenchmarkMatMulSerial(b *testing.B) {
	benchGFLOPS(b, 128, func(x, y *Tensor) { MatMulParallel(x, y, 1) })
}

func BenchmarkMatMulParallel4(b *testing.B) {
	benchGFLOPS(b, 128, func(x, y *Tensor) { MatMulParallel(x, y, 4) })
}
