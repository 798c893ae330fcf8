package ml

import "trimgrad/internal/par"

// Register-blocked, pool-parallel dense-layer kernels. The training
// loop's hot path is three matmul-shaped loops: forward y = xW + b,
// backward input gx = gy·Wᵀ, backward weights dW += xᵀ·gy.
//
// Determinism is a hard invariant here (seed → byte-identical telemetry,
// per the chaos matrix): every float32 accumulator must see its
// contributions in the same order at every worker count. The kernels
// guarantee that structurally —
//
//   - each output row (a sample's activations, a weight row's gradients)
//     is computed by exactly one worker, claimed in fixed index order;
//   - within a row, each accumulator adds its terms in plain ascending
//     index order, one rounded add per term, and a term whose activation
//     is exactly zero is skipped (never multiplied, so a NaN or ±Inf
//     weight opposite a dead ReLU unit stays out of the sum).
//
// Blocking happens around that rule, never inside it. The two kernels
// that scale a vector by an activation (forward, backward weights) first
// collect four *live* activations — ReLU leaves about half of them zero,
// so four adjacent indices are rarely all live — and then add the four
// scaled vectors in index order per load/store of the output element
// (axpy4). The dot-product kernel (backward input) keeps four independent
// accumulators, one per output, over a single pass of gy. Results are
// bit-identical to the naive triple loops, which survive as the
// references in matmul_test.go, at every worker count.

// jBlock is the output-column tile width: a 256-float y-tile (1 KiB)
// stays L1-resident while the kernel streams the W rows beneath it.
const jBlock = 256

// axpy1 adds a·v to y element-wise. len(v) must be at least len(y).
func axpy1(y []float32, a float32, v []float32) {
	v = v[:len(y)]
	for j := range y {
		y[j] += a * v[j]
	}
}

// axpy4 adds a0·v0, a1·v1, a2·v2, a3·v3 to y element-wise, in that order:
// y[j] ends as ((((y[j] + a0·v0[j]) + a1·v1[j]) + a2·v2[j]) + a3·v3[j]),
// exactly what four axpy1 calls leave, with one load and one store of
// y[j] instead of four.
func axpy4(y []float32, a0, a1, a2, a3 float32, v0, v1, v2, v3 []float32) {
	v0, v1, v2, v3 = v0[:len(y)], v1[:len(y)], v2[:len(y)], v3[:len(y)]
	for j := range y {
		t := y[j] + a0*v0[j]
		t += a1 * v1[j]
		t += a2 * v2[j]
		t += a3 * v3[j]
		y[j] = t
	}
}

// Each kernel takes the worker count its layer was bound with: 0 fans the
// rows out over the par pool, 1 — a replica, whose whole pass is already a
// task on that pool — loops on the calling goroutine, building no closure.

// denseForward computes out[s] = x[s]·W + b for every sample, one sample
// per task. W is row-major In×Out.
func denseForward(out, x [][]float32, w, b []float32, outDim, workers int) {
	if workers == 1 {
		for s, row := range x {
			forwardRow(out[s], row, w, b, outDim)
		}
		return
	}
	par.Default.ForEach(len(x), workers, func(s int) { forwardRow(out[s], x[s], w, b, outDim) })
}

// forwardRow computes y = row·W + b.
func forwardRow(y, row, w, b []float32, outDim int) {
	copy(y, b)
	for j0 := 0; j0 < outDim; j0 += jBlock {
		j1 := min(j0+jBlock, outDim)
		yt := y[j0:j1]
		// live holds the input indices with a nonzero activation that
		// are waiting for a full block of four.
		var live [4]int
		k := 0
		for i, xi := range row {
			if xi == 0 {
				continue
			}
			live[k] = i
			if k++; k < 4 {
				continue
			}
			k = 0
			i0, i1, i2, i3 := live[0], live[1], live[2], live[3]
			axpy4(yt, row[i0], row[i1], row[i2], row[i3],
				w[i0*outDim+j0:], w[i1*outDim+j0:], w[i2*outDim+j0:], w[i3*outDim+j0:])
		}
		for _, i := range live[:k] {
			axpy1(yt, row[i], w[i*outDim+j0:])
		}
	}
}

// denseBackwardInput computes gradIn[s] = gradOut[s]·Wᵀ for every
// sample, one sample per task.
func denseBackwardInput(gradIn, gradOut [][]float32, w []float32, outDim, workers int) {
	if workers == 1 {
		for s, gy := range gradOut {
			backwardInputRow(gradIn[s], gy[:outDim], w, outDim)
		}
		return
	}
	par.Default.ForEach(len(gradOut), workers, func(s int) {
		backwardInputRow(gradIn[s], gradOut[s][:outDim], w, outDim)
	})
}

// backwardInputRow computes gx = gy·Wᵀ: four inputs' dot products share
// each pass over gy, each with its own accumulator.
func backwardInputRow(gx, gy, w []float32, outDim int) {
	i := 0
	for ; i+4 <= len(gx); i += 4 {
		w0 := w[i*outDim:][:len(gy)]
		w1 := w[(i+1)*outDim:][:len(gy)]
		w2 := w[(i+2)*outDim:][:len(gy)]
		w3 := w[(i+3)*outDim:][:len(gy)]
		var a0, a1, a2, a3 float32
		for j, g := range gy {
			a0 += g * w0[j]
			a1 += g * w1[j]
			a2 += g * w2[j]
			a3 += g * w3[j]
		}
		gx[i], gx[i+1], gx[i+2], gx[i+3] = a0, a1, a2, a3
	}
	for ; i < len(gx); i++ {
		wRow := w[i*outDim:][:len(gy)]
		var acc float32
		for j, g := range gy {
			acc += g * wRow[j]
		}
		gx[i] = acc
	}
}

// denseBackwardWeights accumulates dW += xᵀ·gradOut, one weight row
// (input index i) per task. For a fixed (i, j) the contributions
// arrive in ascending sample order — the same order as the serial
// (s, i, j) loop, since each sample adds exactly one term per cell — so
// the accumulated float32 is bit-identical to the serial kernel's.
func denseBackwardWeights(dw []float32, x, gradOut [][]float32, outDim, workers int) {
	inDim := len(dw) / outDim
	if workers == 1 {
		for i := 0; i < inDim; i++ {
			backwardWeightsRow(dw[i*outDim:(i+1)*outDim], i, x, gradOut)
		}
		return
	}
	par.Default.ForEach(inDim, workers, func(i int) {
		backwardWeightsRow(dw[i*outDim:(i+1)*outDim], i, x, gradOut)
	})
}

// backwardWeightsRow accumulates dwRow += Σ_s x[s][i]·gradOut[s].
func backwardWeightsRow(dwRow []float32, i int, x, gradOut [][]float32) {
	// live holds the samples whose activation i is nonzero and that are
	// waiting for a full block of four.
	var live [4]int
	k := 0
	for s := range gradOut {
		if x[s][i] == 0 {
			continue
		}
		live[k] = s
		if k++; k < 4 {
			continue
		}
		k = 0
		s0, s1, s2, s3 := live[0], live[1], live[2], live[3]
		axpy4(dwRow, x[s0][i], x[s1][i], x[s2][i], x[s3][i],
			gradOut[s0], gradOut[s1], gradOut[s2], gradOut[s3])
	}
	for _, s := range live[:k] {
		axpy1(dwRow, x[s][i], gradOut[s])
	}
}

// denseBackwardBias accumulates db += Σ_s gradOut[s]. Out is small (a
// few hundred floats), so this stays serial; order matches the serial
// kernel's sample-major accumulation.
func denseBackwardBias(db []float32, gradOut [][]float32) {
	for _, gy := range gradOut {
		for j, g := range gy {
			db[j] += g
		}
	}
}
