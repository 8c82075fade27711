package main

// mlpLayers lists the dense layers (fan-in, fan-out) of the MLP hpo's
// MLObjective builds: features → hidden… → classes.
func mlpLayers(features int, hidden []int, classes int) [][2]int {
	var layers [][2]int
	prev := features
	for _, h := range hidden {
		layers = append(layers, [2]int{prev, h})
		prev = h
	}
	return append(layers, [2]int{prev, classes})
}

// mlpEpochFLOPs counts the matrix-multiply floating-point operations of
// one training epoch (2 per multiply-add): every training sample pays the
// forward product, the weight gradient and — except in the first layer,
// whose input gradient nn skips — the input gradient; every validation
// sample pays one forward product. Bias, activation, loss and optimiser
// updates are O(width) per sample and left out.
func mlpEpochFLOPs(layers [][2]int, trainSamples, valSamples int) float64 {
	fwd, inputGrad := 0.0, 0.0
	for i, l := range layers {
		p := 2 * float64(l[0]) * float64(l[1])
		fwd += p
		if i > 0 {
			inputGrad += p
		}
	}
	return float64(trainSamples)*(2*fwd+inputGrad) + float64(valSamples)*fwd
}
