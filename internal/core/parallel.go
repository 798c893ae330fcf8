package core

import (
	"errors"
	"fmt"
	"sync"

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
// Work is scheduled on the persistent par.Default crew, and every worker
// encodes with the encoder's one codec (quant.Codec's Encode is safe for
// concurrent use), so steady-state encoding pays neither goroutine spawns
// nor codec construction.
//
// workers ≤ 0 means the crew's size (GOMAXPROCS).
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
	// The padded row backing lives only for the duration of this call
	// (packets copy the bits they need), so it comes from the scratch
	// arena: steady-state encoding does not allocate it.
	backing := par.Float32s(nRows * rowSize)
	defer par.PutFloat32s(backing)
	rows := fwht.SplitRowsBacking(grad, rowSize, backing)

	outs := make([]encodedRow, nRows)
	par.Default.ForEachWorker(nRows, workers, func(_, r int) {
		outs[r] = e.encodeRow(epoch, msgID, uint32(r), rows[r])
	})

	msg := &Message{ID: msgID, N: len(grad), Meta: make([][]byte, 0, nRows)}
	for r := range outs {
		if outs[r].err != nil {
			return nil, fmt.Errorf("core: row %d: %w", r, outs[r].err)
		}
		msg.Meta = append(msg.Meta, outs[r].meta)
		msg.Data = append(msg.Data, outs[r].data...)
	}
	if e.rowsTotal != nil {
		e.rowsTotal.Add(int64(nRows))
		e.packetsTotal.Add(int64(len(msg.Meta) + len(msg.Data)))
		e.bytesTotal.Add(int64(msg.DataBytes()))
	}
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
func (e *Encoder) encodeRow(epoch uint64, msgID, r uint32, row []float32) encodedRow {
	enc, err := e.codec.Encode(row, RowSeed(epoch, msgID, r))
	if err != nil {
		return encodedRow{err: err}
	}
	defer enc.Release()
	meta, data, err := wire.PackRow(e.cfg.Flow, msgID, r, enc)
	return encodedRow{meta: meta, data: data, err: err}
}

// DecodeParallel decodes the gradient from whatever packets arrived, rows
// in parallel: Handle only admitted and parked the packets, so a row's whole
// decode — replay its log, inverse-rotate the rotated schemes — is one crew
// index, exactly like the encode side. n is the original gradient length. The
// gradient, the Stats and the obs counters are the same at every worker count
// (per-row contributions are folded in ascending row order, and a failing row
// reports what the rows before it counted); workers = 1 runs the rows in
// order on the calling goroutine.
//
// workers ≤ 0 means the crew's size (GOMAXPROCS). DecodeParallel may be
// called again on one Decoder, but not concurrently with itself or with
// Handle.
func (d *Decoder) DecodeParallel(n, workers int) ([]float32, Stats, error) {
	if n <= 0 {
		return nil, d.stats, errors.New("core: non-positive gradient length")
	}
	// Each row decodes into its slice of out and leaves its counts in res;
	// d.rows is only read.
	res := make([]decodedRow, (n+d.geom.rowSize-1)/d.geom.rowSize)
	out := d.geom.decodeRows(len(res), workers, func(s *replayScratch, r int, dst []float32) {
		res[r] = d.decodeRow(s, uint32(r), dst)
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

// decodeRow is the decode direction's one row body: replay into dst, the
// row's zeroed slice of the output → finalize → count. A row whose metadata
// never arrived stays zero and counts as dropped.
func (d *Decoder) decodeRow(s *replayScratch, r uint32, dst []float32) decodedRow {
	row := d.rows.at(r)
	if row == nil || row.n == 0 {
		return decodedRow{total: len(dst), dropped: len(dst)}
	}
	res := decodedRow{expected: d.geom.packets(row.n)}
	if res.err = row.replay(&d.geom, s, dst, row.dec, nil); res.err != nil {
		return res
	}
	res.total, res.trimmed, res.dropped = row.n, row.filled-row.tailed, row.n-row.filled
	return res
}

// decodeRows is the fork-join both decoders reconstruct through: a zeroed
// output of nRows rows, body run once per row on the par crew with the
// row's slice of it and the executing worker slot's scratch.
func (g *geometry) decodeRows(nRows, workers int, body func(s *replayScratch, r int, dst []float32)) []float32 {
	if workers <= 0 {
		workers = par.Default.Size()
	}
	workers = min(workers, nRows)
	set, _ := replaySets.Get().(*[]replayScratch)
	if set == nil || len(*set) < workers {
		slots := make([]replayScratch, workers)
		set = &slots
	}
	defer replaySets.Put(set)
	out := make([]float32, nRows*g.rowSize)
	par.Default.ForEachWorker(nRows, workers, func(w, r int) {
		body(&(*set)[w], r, out[r*g.rowSize:(r+1)*g.rowSize])
	})
	return out
}

// replayScratch is what one worker slot replays rows with, each part made
// when a row first needs it: a packet's unpacked heads and tails, and its
// decode when that cannot land in place. Sets of them, one slot per worker of
// a reconstruction, are shared by every decoder of the process.
type replayScratch struct {
	bits []uint32
	vals []float32
}

var replaySets sync.Pool // *[]replayScratch

// replay decodes the row's parked packets, in arrival order, into dst — the
// row's zeroed slice of the output — and takes the result back to the
// gradient domain in place. A Decoder row (one decoder, dec) stores what each
// packet brings that is news, exactly as admission counted it; a SumDecoder
// row (a decoder per flow) adds every packet and aggregate, in the order they
// were admitted, so the float32 sum keeps its bits.
func (r *nativeRow) replay(g *geometry, s *replayScratch, dst []float32, dec *quant.NativeDecoder, byFlow map[uint32]*quant.NativeDecoder) error {
	dst = dst[:r.n]
	var seen presence
	if r.overlaps { // rare: only then does replay need to know what is news
		seen = newPresence(r.n)
	}
	for i := range r.log {
		e := &r.log[i]
		start, count, tailCount := int(e.start), int(e.count), int(e.tailCount)
		into := dst[start : start+count]
		vals := into // a Decoder's packet that overlaps nothing decodes in place
		if !e.fresh {
			if cap(s.vals) < count {
				s.vals = make([]float32, count)
			}
			vals = s.vals[:count]
		}
		if e.agg {
			wire.UnpackAgg(vals, e.pkt, tailCount)
		} else {
			if cap(s.bits) < 2*count {
				s.bits = make([]uint32, 2*count)
			}
			nd, heads, tails := dec, s.bits[:count], s.bits[count:2*count]
			if nd == nil {
				nd = byFlow[e.flow]
			}
			wire.UnpackData(e.pkt, g.p, g.q, count, tailCount, heads, tails)
			if err := nd.PacketValues(vals, start, heads, tails, tailCount); err != nil {
				return err
			}
		}
		switch {
		case dec == nil:
			for i, v := range vals {
				into[i] += v
			}
		case e.fresh && r.overlaps:
			seen.arrive(start, count, tailCount, true, nil, nil)
		case !e.fresh:
			seen.arrive(start, count, tailCount, true, into, vals)
		}
	}
	return quant.FinalizeNative(g.scheme, r.seed, dst)
}
