package ml

import "math"

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// against integer labels and the gradient ∂L/∂logits (already divided by
// the batch size, matching PyTorch's mean reduction). The gradient is the
// caller's: one backing array per call.
func SoftmaxCrossEntropy(logits [][]float32, labels []int) (loss float64, grad [][]float32) {
	if len(logits) != len(labels) {
		panic("ml: logits/labels length mismatch")
	}
	n := len(logits)
	var batch batchBuf
	grad = batch.like(logits)
	var exps []float64 // one row's exponentials, reused by the next row
	for s, row := range logits {
		y := labels[s]
		if y < 0 || y >= len(row) {
			panic("ml: label out of range")
		}
		// Numerically stable softmax.
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		if cap(exps) < len(row) {
			exps = make([]float64, len(row))
		}
		exps = exps[:len(row)]
		for i, v := range row {
			e := math.Exp(float64(v - maxV))
			exps[i] = e
			sum += e
		}
		loss += -math.Log(exps[y]/sum + 1e-45)
		g := grad[s]
		for i := range row {
			p := exps[i] / sum
			if i == y {
				p -= 1
			}
			g[i] = float32(p / float64(n))
		}
	}
	return loss / float64(n), grad
}
