package core

import (
	"errors"
	"fmt"

	"trimgrad/internal/fwht"
	"trimgrad/internal/par"
	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
)

// EncodeParallel encodes grad as message msgID of the given epoch, rows
// in parallel. The paper splits each communication blob into 2^15-entry
// rows precisely so the GPU can rotate them independently; on the CPU the
// same independence lets rows encode on all cores. The result — packets,
// obs counters, everything — is the same bytes at every worker count (row
// seeds depend only on (epoch, msgID, row), never on execution order);
// workers = 1 runs the rows in order on the calling goroutine.
//
// Work is scheduled on the persistent par.Default pool and codec
// instances are cached per worker slot across calls, so steady-state
// encoding pays neither goroutine spawns nor codec construction.
//
// workers ≤ 0 means the pool size (GOMAXPROCS).
func (e *Encoder) EncodeParallel(epoch uint64, msgID uint32, grad []float32, workers int) (*Message, error) {
	if len(grad) == 0 {
		return nil, errors.New("core: empty gradient")
	}
	rowSize := e.cfg.RowSize
	nRows := (len(grad) + rowSize - 1) / rowSize
	if workers <= 0 {
		workers = par.Default.Size()
	}
	workers = min(workers, nRows)
	codecs, err := e.workerCodecs(workers)
	if err != nil {
		return nil, err
	}
	// The padded row backing lives only for the duration of this call
	// (packets copy the bits they need), so it comes from the scratch
	// arena: steady-state encoding does not allocate it.
	backing := par.Float32s(nRows * rowSize)
	defer par.PutFloat32s(backing)
	rows := fwht.SplitRowsBacking(grad, rowSize, backing)

	outs := make([]encodedRow, nRows)
	par.Default.ForEachWorker(nRows, workers, func(w, r int) {
		outs[r] = e.encodeRow(codecs[w], epoch, msgID, uint32(r), rows[r])
	})

	msg := &Message{ID: msgID, N: len(grad), Meta: make([][]byte, 0, nRows)}
	for r := range outs {
		if outs[r].err != nil {
			return nil, fmt.Errorf("core: row %d: %w", r, outs[r].err)
		}
		msg.Meta = append(msg.Meta, outs[r].meta)
		msg.Data = append(msg.Data, outs[r].data...)
	}
	countEncoded(e.reg, msg, nRows)
	return msg, nil
}

// encodedRow is one row's packets, or why it has none.
type encodedRow struct {
	meta []byte
	data [][]byte
	err  error
}

// encodeRow is the encode direction's one row body: seed → quantise →
// packetise. The packets copy the head and tail bits they carry, so the
// quantised row's scratch goes straight back to the pool.
func (e *Encoder) encodeRow(codec quant.Codec, epoch uint64, msgID, r uint32, row []float32) encodedRow {
	enc, err := codec.Encode(row, RowSeed(epoch, msgID, r))
	if err != nil {
		return encodedRow{err: err}
	}
	defer enc.Release()
	meta, data, err := wire.PackRow(e.cfg.Flow, msgID, r, enc)
	return encodedRow{meta: meta, data: data, err: err}
}

// workerCodecs returns n cached codec instances, growing the cache under
// the encoder's lock on first use of a larger worker count. Slot 0 is
// the encoder's own codec. Codecs are stateless (see quant.Codec), so
// instances returned here may still be exercised by an earlier
// EncodeParallel call that is in flight; the cache exists so repeated
// calls never re-run quant.New validation on the hot path.
func (e *Encoder) workerCodecs(n int) ([]quant.Codec, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.codecs == nil {
		e.codecs = append(e.codecs, e.codec)
	}
	for len(e.codecs) < n {
		c, err := quant.New(e.cfg.Params)
		if err != nil {
			return nil, err
		}
		e.codecs = append(e.codecs, c)
	}
	return e.codecs[:n:n], nil
}

// DecodeParallel decodes the gradient from whatever packets arrived, rows
// in parallel: the packets were decoded into their rows as they arrived, so
// what is left per row — a copy into the output and the inverse rotation of
// the rotated schemes — is embarrassingly parallel, exactly like the encode
// side. n is the original gradient length. The gradient, the Stats and the
// obs counters are the same at every worker count (per-row contributions
// are folded in ascending row order, and a failing row reports what the
// rows before it counted); workers = 1 runs the rows in order on the
// calling goroutine.
//
// workers ≤ 0 means the pool size (GOMAXPROCS). DecodeParallel may be
// called again on one Decoder, but not concurrently with itself or with
// Handle.
func (d *Decoder) DecodeParallel(n, workers int) ([]float32, Stats, error) {
	if n <= 0 {
		return nil, d.stats, errors.New("core: non-positive gradient length")
	}
	rowSize := d.geom.rowSize
	nRows := (n + rowSize - 1) / rowSize

	// Each row finalizes into its slice of out and leaves its counts in
	// res; d.rows is only read.
	out := make([]float32, nRows*rowSize)
	res := make([]decodedRow, nRows)
	par.Default.ForEach(nRows, workers, func(r int) {
		res[r] = d.decodeRow(uint32(r), out[r*rowSize:(r+1)*rowSize])
	})

	defer func() { d.obs.flush(d.stats) }()
	d.stats.ExpectedPackets = 0
	d.stats.TrimmedCoords = 0
	d.stats.TotalCoords = 0
	d.stats.DroppedCoords = 0
	for r := range res {
		// A row that fails to decode still expected its packets.
		d.stats.ExpectedPackets += res[r].expected
		if res[r].err != nil {
			return nil, d.stats, fmt.Errorf("core: row %d: %w", r, res[r].err)
		}
		d.stats.TotalCoords += res[r].total
		d.stats.TrimmedCoords += res[r].trimmed
		d.stats.DroppedCoords += res[r].dropped
	}
	return out[:n], d.stats, nil
}

// decodedRow is one row's contribution to the message's Stats.
type decodedRow struct {
	expected, total, trimmed, dropped int
	err                               error
}

// decodeRow is the decode direction's one row body: finalize into dst, the
// row's zeroed slice of the output → count. A row whose metadata never
// arrived stays zero and counts as dropped.
func (d *Decoder) decodeRow(r uint32, dst []float32) decodedRow {
	row := d.rows.at(r)
	if row == nil || row.n == 0 {
		return decodedRow{total: len(dst), dropped: len(dst)}
	}
	res := decodedRow{expected: d.geom.packets(row.n)}
	if res.err = row.finalizeInto(dst, d.geom.scheme); res.err != nil {
		return res
	}
	res.total, res.trimmed, res.dropped = row.n, row.filled-row.tailed, row.n-row.filled
	return res
}
