package ml

import (
	"sort"

	"trimgrad/internal/par"
)

// TopKAccuracy returns the fraction of samples whose true label is among
// the k largest logits — the paper reports top-1 and top-5.
func TopKAccuracy(logits [][]float32, labels []int, k int) float64 {
	if len(logits) == 0 {
		return 0
	}
	hits := 0
	for s, row := range logits {
		if inTopK(row, labels[s], k) {
			hits++
		}
	}
	return float64(hits) / float64(len(logits))
}

func inTopK(row []float32, label, k int) bool {
	if k <= 0 || label < 0 || label >= len(row) {
		return false
	}
	target := row[label]
	// Count entries strictly greater; ties broken by index order (lower
	// index wins), matching a stable argsort.
	greater := 0
	for i, v := range row {
		//trimlint:allow float-equality exact tie detection matches a stable argsort by design
		if v > target || (v == target && i < label) {
			greater++
		}
	}
	return greater < k
}

// Evaluate runs the model over the dataset in eval mode and returns top-1
// and top-5 accuracy. The batches fan out over the par crew, each executor
// on its own forward-only replica of m, which m keeps for the next call;
// hits are integer counts, so their sum does not depend on which executor
// scored which batch.
func Evaluate(m *Model, d *Dataset, batch int) (top1, top5 float64) {
	if d.Len() == 0 {
		return 0, 0
	}
	batches := (d.Len() + batch - 1) / batch
	workers := min(par.Default.Size(), batches)
	replicas := m.evalReplicas(workers)
	hits := make([][2]int, workers)
	par.Default.ForEachWorker(batches, workers, func(w, b int) {
		start := b * batch
		end := min(start+batch, d.Len())
		logits := replicas[w].Forward(d.X[start:end], false)
		for s, row := range logits {
			if inTopK(row, d.Y[start+s], 1) {
				hits[w][0]++
			}
			if inTopK(row, d.Y[start+s], 5) {
				hits[w][1]++
			}
		}
	})
	var hits1, hits5 int
	for _, h := range hits {
		hits1 += h[0]
		hits5 += h[1]
	}
	n := float64(d.Len())
	return float64(hits1) / n, float64(hits5) / n
}

// ArgTopK returns the indices of the k largest values, descending.
func ArgTopK(row []float32, k int) []int {
	idx := make([]int, len(row))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return row[idx[a]] > row[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
