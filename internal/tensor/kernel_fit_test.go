package tensor_test

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestFitHistoryBitIdenticalAcrossKernels trains the same MLP on the AVX
// and on the Go micro-kernel and requires identical histories: every
// forward and weight-gradient product of a real training run, including
// the tail batch and the evaluation batch shapes, must agree bit for bit.
func TestFitHistoryBitIdenticalAcrossKernels(t *testing.T) {
	if !tensor.AVXKernel() {
		t.Skip("CPU has no AVX: only the Go kernel runs here")
	}
	ds := datasets.MNISTLike(1000, 1)
	tr, va := ds.Split(0.8, tensor.NewRNG(2))
	fit := func(avx bool) *nn.History {
		defer tensor.SetAVXKernel(avx)()
		r := tensor.NewRNG(3)
		m := nn.NewMLP(r, ds.Features(), []int{64}, 10)
		opt, err := nn.NewOptimizer("Adam", 0.001)
		if err != nil {
			t.Fatal(err)
		}
		h, err := m.Fit(tr.X, tr.Y, va.X, va.Y, nn.FitConfig{Epochs: 3, BatchSize: 32, Optimizer: opt, Shuffle: true, RNG: r})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	goH, avxH := fit(false), fit(true)
	for name, pair := range map[string][2][]float64{
		"TrainLoss": {goH.TrainLoss, avxH.TrainLoss},
		"TrainAcc":  {goH.TrainAcc, avxH.TrainAcc},
		"ValLoss":   {goH.ValLoss, avxH.ValLoss},
		"ValAcc":    {goH.ValAcc, avxH.ValAcc},
	} {
		if len(pair[0]) != 3 || len(pair[1]) != 3 {
			t.Fatalf("%s: %d and %d epochs, want 3", name, len(pair[0]), len(pair[1]))
		}
		for e := range pair[0] {
			if pair[0][e] != pair[1][e] {
				t.Fatalf("%s epoch %d: Go %v, AVX %v", name, e, pair[0][e], pair[1][e])
			}
		}
	}
}
