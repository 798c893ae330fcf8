package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
)

// FuzzDecoderHandle fuzzes the decoders, not the parsers: wire's fuzzers
// feed raw bytes, which stop at the first checksum, so nothing forged ever
// reaches the code behind CheckDataPacket. Here the input is a program over
// a pool of real packets (metadata, full, head-trimmed and mid-tail-trimmed
// data, a switch-built aggregate): each four-byte step picks a packet, a
// field to overwrite (header key and geometry fields, the metadata's N,
// scheme and scale) and a value, and the packet is re-sealed — rebuilt with
// fresh CRCs — before a Decoder and a 1-flow SumDecoder both get it. Two
// further fields damage the bytes without re-sealing.
func FuzzDecoderHandle(f *testing.F) {
	const (
		rowSize = 1 << 9
		nRows   = 3
		msgID   = 5
		// nFlowPackets is what one flow emits for a full row: no row's log may
		// exceed twice that (and, a SumDecoder's, maxPendingPerRow more).
		nFlowPackets = 2
	)
	cfg := Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: rowSize, Flow: 7}
	enc, err := NewEncoderWith(WithConfig(cfg))
	if err != nil {
		f.Fatal(err)
	}
	msg, err := enc.Encode(2, msgID, gaussianGrad(50, nRows*rowSize))
	if err != nil {
		f.Fatal(err)
	}
	pool := append(append([][]byte{}, msg.Meta...), msg.Data...)
	for i, pkt := range msg.Data {
		h, err := wire.ParseHeader(pkt)
		if err != nil {
			f.Fatal(err)
		}
		pool = append(pool, wire.Trim(bytes.Clone(pkt), h.TrimmedSize()+i*97%h.TailBytes()))
	}
	scales := func(flow, _, row uint32) (wire.MetaInfo, bool) {
		m, err := wire.ParseMetaPacket(msg.Meta[row])
		return wire.MetaInfo{Scheme: quant.RHT, Scale: m.Scale}, err == nil && flow == cfg.Flow
	}
	agg, err := wire.MergeTrimmable(msg.Data[0], msg.Data[0], scales)
	if err != nil {
		f.Fatal(err)
	}
	pool = append(pool, agg)

	// Seeds: the message in order; data first; one forgery of every kind
	// among the genuine packets.
	var inOrder, metaLast, forged []byte
	for i := range pool {
		inOrder = append(inOrder, byte(i), 0, 0, 0)
	}
	for i := len(pool) - 1; i >= 0; i-- {
		metaLast = append(metaLast, byte(i), 0, 0, 0)
	}
	for field := byte(1); field <= fieldTruncate; field++ {
		forged = append(forged, 1, field, 0, field, field, field, 3, 0, byte(nRows+1), 0, 0, 0)
	}
	f.Add(inOrder)
	f.Add(metaLast)
	f.Add(append(forged, inOrder...))

	f.Fuzz(func(t *testing.T, program []byte) {
		dec, err := NewDecoderWith(msgID, WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := NewSumDecoder(msgID, 1, WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		var fed [][]byte
		rowsSeen := map[uint32]bool{}
		for ; len(program) >= 4; program = program[4:] {
			pkt := mutate(pool[int(program[0])%len(pool)], program[1], uint16(program[2])<<8|uint16(program[3]))
			if h, err := wire.ParseHeader(pkt); err == nil {
				rowsSeen[h.Row] = true
			}
			fed = append(fed, pkt)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		metas, aggExtra := [2]int{}, 0 // accepted metadata per decoder; inputs beyond the first of accepted aggregates
		for _, pkt := range fed {
			h, _ := wire.ParseHeader(pkt)
			for i, handle := range []func([]byte) error{dec.Handle, sum.Handle} {
				if handle(pkt) != nil {
					continue
				}
				switch {
				case h.IsMeta():
					metas[i]++
				case h.IsAgg():
					aggExtra += int(h.Flow) - 1
				}
			}
		}
		runtime.ReadMemStats(&after)
		// Two row tables (≤ 512 KB each), a few KB a packet for rejections
		// and parked packets, and per row seen its arrival log, bitsets and
		// decoders: nothing a header field can inflate.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+len(fed)<<14+len(rowsSeen)*16*rowSize); grew > bound {
			t.Fatalf("handling %d packets over %d rows allocated %d bytes, bound %d", len(fed), len(rowsSeen), grew, bound)
		}

		// Every packet fed is accounted for exactly once: accepted metadata,
		// an accepted data packet — in its row's arrival log or, to a Decoder,
		// no news — a rejection, or parked awaiting metadata. No log outgrows
		// its row's bound.
		parked, logged := [2]int{}, [2]int{}
		bounded := func(row *nativeRow) int {
			if len(row.log) > row.limit || len(row.log) > 2*nFlowPackets+maxPendingPerRow {
				t.Fatalf("a row's log holds %d packets, its limit is %d", len(row.log), row.limit)
			}
			return len(row.log)
		}
		for _, row := range dec.rows {
			if row != nil {
				parked[0] += len(row.pending)
				logged[0] += bounded(&row.nativeRow)
			}
		}
		for _, row := range sum.rows {
			if row != nil {
				for _, pkts := range row.pending {
					parked[1] += len(pkts)
				}
				logged[1] += bounded(&row.nativeRow)
			}
		}
		ds, ss := dec.Stats(), sum.Stats()
		if logged[0] > ds.Packets || logged[1] != ss.Packets-aggExtra {
			t.Fatalf("logs hold %d and %d packets; the Decoder accepted %d (some no news), the SumDecoder %d (all of them news)",
				logged[0], logged[1], ds.Packets, ss.Packets-aggExtra)
		}
		if got := metas[0] + ds.Packets + ds.RejectedPackets + parked[0]; got != len(fed) {
			t.Fatalf("Decoder accounts for %d of %d packets (%d metas, %d parked, %+v)", got, len(fed), metas[0], parked[0], ds)
		}
		if got := metas[1] + ss.Packets - aggExtra + ss.RejectedPackets + parked[1]; got != len(fed) {
			t.Fatalf("SumDecoder accounts for %d of %d packets (%d metas, %d parked, %d extra inputs, %+v)",
				got, len(fed), metas[1], parked[1], aggExtra, ss)
		}

		// What admission let in, Reconstruct can decode — twice, to the
		// same Stats.
		for name, reconstruct := range map[string]func(int) ([]float32, Stats, error){
			"Decoder": dec.Reconstruct, "SumDecoder": sum.Reconstruct,
		} {
			_, st, err := reconstruct(nRows * rowSize)
			if err != nil {
				t.Fatalf("%s.Reconstruct: %v", name, err)
			}
			if st.TrimmedCoords+st.DroppedCoords > st.TotalCoords {
				t.Fatalf("%s: trimmed %d + dropped %d coordinates of %d", name, st.TrimmedCoords, st.DroppedCoords, st.TotalCoords)
			}
			if _, again, err := reconstruct(nRows * rowSize); err != nil || again != st {
				t.Fatalf("%s.Reconstruct again: %+v, %v; was %+v", name, again, err, st)
			}
		}
		dec.Release()
		sum.Release()
	})
}

// The fields a fuzz step can overwrite. Up to fieldScale the packet is
// re-sealed afterwards; the last two damage it as a wire would.
const (
	fieldNone = iota
	fieldRow
	fieldStart
	fieldCount
	fieldSeed
	fieldFlow
	fieldMessage
	fieldP
	fieldQ
	fieldN
	fieldScheme
	fieldScale
	fieldFlip
	fieldTruncate
)

// mutate returns pkt — one of the pool's valid packets — with one field
// overwritten from v and its checksums made good again, or pkt itself when
// the field does not apply or the result cannot be built at all. Every
// fourth v is taken from the values a forger would try first.
func mutate(pkt []byte, field byte, v uint16) []byte {
	field %= fieldTruncate + 1
	val := uint32(v)
	if v%4 == 0 {
		edges := []uint32{0, 1, 1 << 9, 1<<9 + 1, 1 << 15, maxRows - 1, maxRows, 1 << 24, 1 << 31, math.MaxUint32}
		val = edges[int(v>>2)%len(edges)]
	}
	switch field {
	case fieldNone:
		return pkt
	case fieldFlip:
		out := bytes.Clone(pkt)
		out[int(val)%len(out)] ^= 1 << (v % 8)
		return out
	case fieldTruncate:
		return bytes.Clone(pkt[:int(val)%len(pkt)])
	}
	edit := func(h *wire.Header) {
		switch field {
		case fieldRow:
			h.Row = val
		case fieldStart:
			h.Start = val
		case fieldCount:
			h.Count = min(h.Count, uint16(val))
		case fieldSeed:
			h.Seed ^= uint64(val) + 1
		case fieldFlow:
			h.Flow = val
		case fieldMessage:
			h.Message = val
		case fieldP:
			h.P = uint8(val)
		case fieldQ:
			h.Q = uint8(val)
		}
	}
	h, err := wire.ParseHeader(pkt)
	if err != nil {
		return pkt
	}
	var out []byte
	switch {
	case h.IsMeta():
		m, err := wire.ParseMetaPacket(pkt)
		if err != nil {
			return pkt
		}
		edit(&m.Header)
		switch field {
		case fieldN:
			m.N = val
		case fieldScheme:
			m.Scheme = uint8(val)
		case fieldScale:
			m.Scale = []float64{math.NaN(), math.Inf(1), -1, 0, float64(val)}[v%5]
		}
		return wire.BuildMetaPacket(m.Header, m.Scheme, m.N, m.Scale)
	case h.IsAgg():
		ap, err := wire.ParseAggPacket(pkt)
		if err != nil {
			return pkt
		}
		edit(&ap.Header)
		out, err = wire.BuildAggPacket(ap.Header, ap.Sums[:ap.Count], ap.TailSums[:min(ap.TailCount, int(ap.Count))])
		if err != nil {
			return pkt
		}
	default:
		dp, err := wire.ParseDataPacket(pkt)
		if err != nil {
			return pkt
		}
		edit(&dp.Header)
		out, err = wire.BuildDataPacket(dp.Header, dp.Heads[:dp.Count], dp.Tails[:dp.Count])
		if err != nil {
			return pkt
		}
		if h.IsCut(len(pkt)) {
			out = wire.Trim(out, len(pkt))
		}
	}
	return out
}
