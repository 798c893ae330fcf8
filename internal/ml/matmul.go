package ml

import (
	"math"

	"trimgrad/internal/par"
)

// Register-blocked, crew-parallel dense-layer kernels driven by live sets.
// The training loop's hot path is three matmul-shaped loops: forward
// y = xW + b, backward input gx = gy·Wᵀ, backward weights dW += xᵀ·gy.
//
// A pass lists a layer's live inputs once; kernels never test an activation
// for zero. Whoever writes an activation matrix compacts, per sample, the
// ascending indices of its non-zero entries into a liveSet (the relu from
// the same v > 0 that writes y, the first dense from its data's x ≠ 0), and
// backward transposes the set once, in O(nnz), into each unit's ascending
// samples. Forward walks a sample's list, backward weights a unit's sample
// list, and backward input computes dot products only for the live units of
// the rectifier below and stores +0 for the rest, so the rectifier has no
// backward pass of its own. The one input nobody rectified, the model's, is
// not differentiated.
//
// Determinism is a hard invariant here (seed → byte-identical telemetry,
// per the chaos matrix): every float32 accumulator sees its contributions
// in the order of the naive triple loops — the references in
// matmul_test.go — at every worker count. That holds structurally:
//
//   - each output row (a sample's activations, a weight row's gradients)
//     is computed by exactly one worker, claimed in fixed index order;
//   - lists ascend, so y[j] adds its terms in ascending i, a weight cell in
//     ascending s, a dot product in ascending j, one rounded add per term;
//     blocks of four (axpy4, four accumulators per pass over gy) take
//     consecutive list entries and never reorder one accumulator's adds;
//   - an unlisted entry is never multiplied, so a NaN or ±Inf weight
//     opposite a dead unit stays out of the forward sum and the input
//     gradient, and the listed set is the one the references' tests for
//     zero keep: for a rectified y, y > 0 ⇔ y ≠ 0 (a NaN pre-activation
//     is rectified to +0, dead either way);
//   - a dead unit's input gradient is the +0 the reference mask writes.

// jBlock is the output-column tile width: a 256-float y-tile (1 KiB)
// stays L1-resident while the kernel streams the W rows beneath it.
const jBlock = 256

// liveSet lists the non-zero entries of one n×width activation matrix:
// sample s's live units, ascending, in idx[s*width:][:n[s]], and after
// transpose unit i's live samples, ascending, in tidx[i*len(n):][:tn[i]].
// Every slice is sized from batch × width, whatever share is live, so a
// set reused at a batch size it has seen allocates nothing.
type liveSet struct {
	width            int
	n, tn, idx, tidx []int32
}

// units returns sample s's live units.
func (l *liveSet) units(s int) []int32 { return l.idx[s*l.width:][:l.n[s]] }

// samples returns the samples where unit i is live. Valid after transpose.
func (l *liveSet) samples(i int) []int32 { return l.tidx[i*len(l.n):][:l.tn[i]] }

// list makes l the live set of x: of x as it is or, rectifying, of
// relu(x), written over x — x[s][i] where that is > 0 and +0 elsewhere
// (−0, negatives, NaN). It is the one place an activation is compared with
// zero, and no branch depends on the outcome: the value is chosen on its
// bits, as integers, and the list's advance is a conditional move too — a
// ReLU unit is live about half the time, which a branch cannot predict.
func (l *liveSet) list(x [][]float32, rectify bool) {
	width := 0
	for _, row := range x {
		width = max(width, len(row))
	}
	l.width = width
	l.n = grow(l.n, len(x))
	l.idx = grow(l.idx, len(x)*width)
	for s, row := range x {
		idx := l.idx[s*width:][:len(row)]
		n := 0
		if !rectify {
			for i, v := range row {
				idx[n] = int32(i)
				if v != 0 {
					n++
				}
			}
		} else {
			for i, v := range row {
				live, bits := v > 0, math.Float32bits(v)
				if !live {
					bits = 0
				}
				row[i] = math.Float32frombits(bits)
				idx[n] = int32(i)
				if live {
					n++
				}
			}
		}
		l.n[s] = int32(n)
	}
}

// transpose fills tn and tidx from idx. Samples are visited in order, so
// each unit's list ascends.
func (l *liveSet) transpose() {
	batch := len(l.n)
	l.tn = grow(l.tn, l.width)
	clear(l.tn)
	l.tidx = grow(l.tidx, batch*l.width)
	for s := 0; s < batch; s++ {
		for _, i := range l.units(s) {
			l.tidx[int(i)*batch+int(l.tn[i])] = int32(s)
			l.tn[i]++
		}
	}
}

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
// rows out over the par crew, 1 — a replica, whose whole pass is already a
// task on that crew — loops on the calling goroutine, building no closure.
// Both run the same row kernel.

// denseForward computes out[s] = x[s]·W + b for every sample, one sample
// per task, over the entries of x[s] that live lists. W is row-major In×Out.
func denseForward(out, x [][]float32, w, b []float32, outDim, workers int, live *liveSet) {
	if workers == 1 {
		for s, row := range x {
			forwardRow(out[s], row, w, b, outDim, live.units(s))
		}
		return
	}
	par.Default.ForEach(len(x), workers, func(s int) { forwardRow(out[s], x[s], w, b, outDim, live.units(s)) })
}

// forwardRow computes y = row·W + b over row's live entries, four W rows
// per load/store of the y-tile.
func forwardRow(y, row, w, b []float32, outDim int, live []int32) {
	copy(y, b)
	for j0 := 0; j0 < outDim; j0 += jBlock {
		yt := y[j0:min(j0+jBlock, outDim)]
		k := 0
		for ; k+4 <= len(live); k += 4 {
			i0, i1, i2, i3 := int(live[k]), int(live[k+1]), int(live[k+2]), int(live[k+3])
			axpy4(yt, row[i0], row[i1], row[i2], row[i3],
				w[i0*outDim+j0:], w[i1*outDim+j0:], w[i2*outDim+j0:], w[i3*outDim+j0:])
		}
		for _, i := range live[k:] {
			axpy1(yt, row[i], w[int(i)*outDim+j0:])
		}
	}
}

// denseBackwardInput computes gradIn[s] = gradOut[s]·Wᵀ for every sample,
// one sample per task: for the units mask lists, +0 for the others.
func denseBackwardInput(gradIn, gradOut [][]float32, w []float32, outDim, workers int, mask *liveSet) {
	if workers == 1 {
		for s, gy := range gradOut {
			backwardInputRow(gradIn[s], gy[:outDim], w, outDim, mask.units(s))
		}
		return
	}
	par.Default.ForEach(len(gradOut), workers, func(s int) {
		backwardInputRow(gradIn[s], gradOut[s][:outDim], w, outDim, mask.units(s))
	})
}

// backwardInputRow computes gx = gy·Wᵀ for the listed units and +0 for the
// rest: four units' dot products share each pass over gy, each with its own
// accumulator.
func backwardInputRow(gx, gy, w []float32, outDim int, live []int32) {
	clear(gx)
	k := 0
	for ; k+4 <= len(live); k += 4 {
		i0, i1, i2, i3 := int(live[k]), int(live[k+1]), int(live[k+2]), int(live[k+3])
		w0 := w[i0*outDim:][:len(gy)]
		w1 := w[i1*outDim:][:len(gy)]
		w2 := w[i2*outDim:][:len(gy)]
		w3 := w[i3*outDim:][:len(gy)]
		var a0, a1, a2, a3 float32
		for j, g := range gy {
			a0 += g * w0[j]
			a1 += g * w1[j]
			a2 += g * w2[j]
			a3 += g * w3[j]
		}
		gx[i0], gx[i1], gx[i2], gx[i3] = a0, a1, a2, a3
	}
	for _, i := range live[k:] {
		wRow := w[int(i)*outDim:][:len(gy)]
		var acc float32
		for j, g := range gy {
			acc += g * wRow[j]
		}
		gx[i] = acc
	}
}

// denseBackwardWeights accumulates dW += xᵀ·gradOut, one weight row
// (input index i) per task, over the samples live lists for unit i. For a
// fixed (i, j) the contributions arrive in ascending sample order — the
// same order as the serial (s, i, j) loop, since each sample adds at most
// one term per cell — so the accumulated float32 is bit-identical to the
// serial kernel's. live must be transposed.
func denseBackwardWeights(dw []float32, x, gradOut [][]float32, outDim, workers int, live *liveSet) {
	inDim := len(dw) / outDim
	if workers == 1 {
		for i := 0; i < inDim; i++ {
			backwardWeightsRow(dw[i*outDim:(i+1)*outDim], i, x, gradOut, live.samples(i))
		}
		return
	}
	par.Default.ForEach(inDim, workers, func(i int) {
		backwardWeightsRow(dw[i*outDim:(i+1)*outDim], i, x, gradOut, live.samples(i))
	})
}

// backwardWeightsRow accumulates dwRow += Σ x[s][i]·gradOut[s] over unit
// i's live samples, four gradient rows per load/store of dwRow.
func backwardWeightsRow(dwRow []float32, i int, x, gradOut [][]float32, live []int32) {
	k := 0
	for ; k+4 <= len(live); k += 4 {
		s0, s1, s2, s3 := live[k], live[k+1], live[k+2], live[k+3]
		axpy4(dwRow, x[s0][i], x[s1][i], x[s2][i], x[s3][i],
			gradOut[s0], gradOut[s1], gradOut[s2], gradOut[s3])
	}
	for _, s := range live[k:] {
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
