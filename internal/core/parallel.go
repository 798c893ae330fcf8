package core

import (
	"errors"
	"fmt"

	"trimgrad/internal/fwht"
	"trimgrad/internal/par"
	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
)

// EncodeParallel is Encode with per-row parallelism. The paper splits each
// communication blob into 2^15-entry rows precisely so the GPU can rotate
// them independently; on the CPU the same independence lets rows encode on
// all cores. The result — packets, obs counters, everything — is
// bit-identical to Encode (row seeds depend only on (epoch, msgID, row),
// never on execution order).
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
	if workers > nRows {
		workers = nRows
	}
	if workers <= 1 {
		return e.Encode(epoch, msgID, grad)
	}
	codecs, err := e.workerCodecs(workers)
	if err != nil {
		return nil, err
	}
	backing := par.Float32s(nRows * rowSize)
	defer par.PutFloat32s(backing)
	rows := fwht.SplitRowsBacking(grad, rowSize, backing)

	type rowOut struct {
		meta []byte
		data [][]byte
		err  error
	}
	outs := make([]rowOut, nRows)
	par.Default.ForEachWorker(nRows, workers, func(w, r int) {
		seed := RowSeed(epoch, msgID, uint32(r))
		enc, err := codecs[w].Encode(rows[r], seed)
		if err != nil {
			outs[r].err = fmt.Errorf("core: row %d: %w", r, err)
			return
		}
		meta, data, err := wire.PackRowTo(e.arena, e.cfg.Flow, msgID, uint32(r), enc)
		if err != nil {
			outs[r].err = fmt.Errorf("core: row %d: %w", r, err)
			return
		}
		outs[r] = rowOut{meta: meta, data: data}
	})

	msg := &Message{ID: msgID, N: len(grad), Meta: make([][]byte, 0, nRows)}
	for r := range outs {
		if outs[r].err != nil {
			return nil, outs[r].err
		}
		msg.Meta = append(msg.Meta, outs[r].meta)
		msg.Data = append(msg.Data, outs[r].data...)
	}
	countEncoded(e.reg, msg, nRows)
	return msg, nil
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

// DecodeParallel is Reconstruct with per-row parallelism: row
// reassembly + codec decode is embarrassingly parallel, exactly like the
// encode side. The reconstructed gradient is byte-identical to
// Reconstruct's, and the merged Stats and obs counters match the serial
// loop field for field (per-row contributions are folded in ascending
// row order, including the serial loop's stop-at-first-error prefix).
//
// workers ≤ 0 means the pool size (GOMAXPROCS). DecodeParallel and
// Reconstruct may be freely interleaved on one Decoder, but not called
// concurrently with each other or with Handle.
func (d *Decoder) DecodeParallel(n, workers int) ([]float32, Stats, error) {
	if n <= 0 {
		return nil, d.stats, errors.New("core: non-positive gradient length")
	}
	rowSize := d.cfg.RowSize
	nRows := (n + rowSize - 1) / rowSize
	if workers <= 0 {
		workers = par.Default.Size()
	}
	if workers > nRows {
		workers = nRows
	}
	if workers <= 1 {
		return d.Reconstruct(n)
	}

	// Per-row partial statistics, merged serially below. The shared codec
	// is safe to call concurrently (quant.Codec documents statelessness);
	// d.rows is only read here, never written.
	type rowRes struct {
		expected, total, trimmed, dropped int
		err                               error
	}
	out := make([]float32, nRows*rowSize)
	res := make([]rowRes, nRows)
	par.Default.ForEach(nRows, workers, func(r int) {
		asm := d.rows[uint32(r)]
		if asm == nil || !asm.HaveMeta() {
			// Row never arrived: decode as zeros (out is already zero).
			res[r] = rowRes{total: rowSize, dropped: rowSize}
			return
		}
		enc, headAvail, tailAvail, err := asm.Assemble()
		if err != nil {
			res[r].err = fmt.Errorf("core: row %d: %w", r, err)
			return
		}
		res[r].expected = asm.ExpectedPackets()
		dec, err := d.codec.Decode(enc, headAvail, tailAvail)
		if err != nil {
			res[r].err = fmt.Errorf("core: row %d: %w", r, err)
			return
		}
		for i := range headAvail {
			res[r].total++
			switch {
			case !headAvail[i]:
				res[r].dropped++
			case !tailAvail[i]:
				res[r].trimmed++
			}
		}
		copy(out[r*rowSize:(r+1)*rowSize], dec)
	})

	defer func() { d.obs.flush(d.stats) }()
	d.stats.ExpectedPackets = 0
	d.stats.TrimmedCoords = 0
	d.stats.TotalCoords = 0
	d.stats.DroppedCoords = 0
	for r := range res {
		// Expected is counted before the row decodes in the serial loop,
		// so fold it in before surfacing the row's error.
		d.stats.ExpectedPackets += res[r].expected
		if res[r].err != nil {
			return nil, d.stats, res[r].err
		}
		d.stats.TotalCoords += res[r].total
		d.stats.TrimmedCoords += res[r].trimmed
		d.stats.DroppedCoords += res[r].dropped
	}
	return out[:n], d.stats, nil
}
