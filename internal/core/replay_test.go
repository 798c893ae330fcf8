package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

// Handle admits and parks; the rows are decoded later, on the crew, from
// their arrival logs. These tests pin the places where that replay could
// differ from decoding on arrival: the order packets came in, the bytes of a
// buffer the sender goes on using, and a log that is full.

// replayWorkers are the executor counts every replay test runs at.
var replayWorkers = []int{1, 2, 3, 8}

// TestPresenceArrive is the table for the one rule that decides what is
// news, at admission (counts only) and at replay (counts and stores).
func TestPresenceArrive(t *testing.T) {
	type pkt struct{ start, count, tailCount int }
	for _, tc := range []struct {
		name         string
		before       []pkt // recorded first
		p            pkt
		heads, tails int
		news         []int // coordinates whose value the packet supplies
	}{
		{"first full packet", nil, pkt{0, 10, 10}, 10, 10, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"first trimmed packet", nil, pkt{3, 5, 0}, 5, 0, []int{3, 4, 5, 6, 7}},
		{"first mid-tail packet", nil, pkt{3, 5, 2}, 5, 2, []int{3, 4, 5, 6, 7}},
		{"duplicate of a full packet", []pkt{{0, 10, 10}}, pkt{0, 10, 10}, 0, 0, nil},
		{"trimmed copy after the full one", []pkt{{0, 10, 10}}, pkt{0, 10, 0}, 0, 0, nil},
		{"full copy upgrades the trimmed one", []pkt{{0, 10, 0}}, pkt{0, 10, 10}, 0, 10, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"longer survivor prefix upgrades the shorter", []pkt{{0, 10, 4}}, pkt{0, 10, 7}, 0, 3, []int{4, 5, 6}},
		{"shorter survivor prefix is no news", []pkt{{0, 10, 7}}, pkt{0, 10, 4}, 0, 0, nil},
		{"overlap: heads beyond, tails inside", []pkt{{0, 6, 0}}, pkt{4, 6, 3}, 4, 3, []int{4, 5, 6, 7, 8, 9}},
		{"overlap: only the uncovered head-only tail end", []pkt{{0, 6, 6}}, pkt{4, 6, 1}, 4, 0, []int{6, 7, 8, 9}},
		{"across a word boundary", []pkt{{60, 8, 0}}, pkt{56, 80, 70}, 72, 70, append(seq(56, 126), seq(126, 136)...)},
		{"across a word boundary, tails already there", []pkt{{60, 8, 8}}, pkt{56, 80, 70}, 72, 62, append(append(seq(56, 60), seq(68, 126)...), seq(126, 136)...)},
	} {
		const n = 200
		mark := func(c int) float32 { return float32(1000 + c) }
		for _, record := range []bool{true, false} {
			p := newPresence(n)
			for _, b := range tc.before {
				p.arrive(b.start, b.count, b.tailCount, true, nil, nil)
			}
			prior := append([]uint64(nil), p.heads[:cap(p.heads)]...) // both sets: tails follows heads in one array
			dst, vals := make([]float32, tc.p.count), make([]float32, tc.p.count)
			for i := range vals {
				vals[i] = mark(tc.p.start + i)
			}
			heads, tails := p.arrive(tc.p.start, tc.p.count, tc.p.tailCount, record, dst, vals)
			if heads != tc.heads || tails != tc.tails {
				t.Errorf("%s (record=%v): gained %d heads, %d tails; want %d, %d", tc.name, record, heads, tails, tc.heads, tc.tails)
			}
			want := make([]float32, tc.p.count)
			for _, c := range tc.news {
				want[c-tc.p.start] = mark(c)
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Errorf("%s (record=%v): coordinate %d stored %v, want %v", tc.name, record, tc.p.start+i, dst[i], want[i])
				}
			}
			// Recorded, the same packet is no news the second time; not
			// recorded, the sets are untouched.
			if record {
				if h, tl := p.arrive(tc.p.start, tc.p.count, tc.p.tailCount, false, nil, nil); h != 0 || tl != 0 {
					t.Errorf("%s: the recorded packet is news again: %d heads, %d tails", tc.name, h, tl)
				}
			} else if after := p.heads[:cap(p.heads)]; !slices.Equal(after, prior) {
				t.Errorf("%s: record=false changed the sets", tc.name)
			}
		}
	}
}

func seq(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// decodeAt feeds pkts to a fresh Decoder and decodes twice at each worker
// count: every decode must be the same bits and Stats, which it returns.
func decodeAt(t *testing.T, label string, cfg Config, n int, pkts [][]byte) ([]float32, Stats) {
	t.Helper()
	dec, err := NewDecoderWith(ingestMsg, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, pkt := range pkts {
		_ = dec.Handle(pkt)
	}
	var first []float32
	var firstStats Stats
	for _, workers := range replayWorkers {
		for repeat := 0; repeat < 2; repeat++ {
			got, stats, err := dec.DecodeParallel(n, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", label, workers, err)
			}
			if first == nil {
				first, firstStats = got, stats
				continue
			}
			requireSameBits(t, fmt.Sprintf("%s workers=%d repeat=%d", label, workers, repeat), got, first)
			if stats != firstStats || dec.Stats() != firstStats {
				t.Fatalf("%s workers=%d repeat=%d: stats\n got %+v\nwant %+v", label, workers, repeat, stats, firstStats)
			}
		}
	}
	return first, firstStats
}

// TestDecoderArrivalOrderIndependent: one multiset of packets — every row's
// metadata (twice), and of every data packet a full copy, a head-trimmed
// copy and a duplicate of one of the two, a fifth of the packets missing
// altogether — decodes to the same bits and the same Stats in whatever order
// it arrives: in order, data before metadata, trimmed before full or after,
// and shuffled.
func TestDecoderArrivalOrderIndependent(t *testing.T) {
	for _, p := range ingestSchemes {
		for _, tb := range ingestTailBits {
			p.TailBits = tb
			cfg := Config{Params: p, RowSize: ingestRowSize, Flow: 3}
			m := encodeAwkward(t, cfg, awkwardGrad(120))
			rng := xrand.New(121)
			var fullFirst, trimmedFirst [][]byte
			for _, row := range m.data {
				for _, pkt := range row {
					if rng.Float64() < 0.2 {
						continue
					}
					full, trimmed := pkt, trimTo(t, pkt, 0)
					dup := full
					if rng.Float64() < 0.5 {
						dup = trimmed
					}
					fullFirst = append(fullFirst, full, trimmed, dup)
					trimmedFirst = append(trimmedFirst, trimmed, dup, full)
				}
			}
			metas := append(append([][]byte{}, m.metas...), m.metas...)
			inOrder := append(append([][]byte{}, metas...), fullFirst...)
			orders := map[string][][]byte{
				"trimmed first":  append(append([][]byte{}, metas...), trimmedFirst...),
				"data then meta": append(append([][]byte{}, fullFirst...), metas...),
			}
			for s := uint64(0); s < 3; s++ {
				shuffled := append([][]byte{}, inOrder...)
				r := xrand.New(122 + s)
				for i := len(shuffled) - 1; i > 0; i-- {
					j := int(r.Uint64() % uint64(i+1))
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				}
				orders[fmt.Sprintf("shuffled %d", s)] = shuffled
			}
			label := fmt.Sprintf("%v q=%d", p.Scheme, tb)
			want, wantStats := decodeAt(t, label+" in order", cfg, m.n, inOrder)
			if wantStats.RejectedPackets != 0 || wantStats.Packets != len(fullFirst) {
				t.Fatalf("%s in order: %+v, want %d packets and no rejection", label, wantStats, len(fullFirst))
			}
			for name, pkts := range orders {
				got, stats := decodeAt(t, label+" "+name, cfg, m.n, pkts)
				requireSameBits(t, label+" "+name, got, want)
				if stats != wantStats {
					t.Fatalf("%s %s: stats\n got %+v\nwant %+v", label, name, stats, wantStats)
				}
			}
		}
	}
}

// TestTailCRCWriteAfterHandle: a decoder references the packets it is
// handed and replays them by what it recorded at admission, checking no CRC
// again — so a write to the tail-CRC field of a handed buffer after Handle,
// which leaves the packet failing its own check, changes neither the decode
// nor the Stats. Nothing writes a packet after its builder returns; this
// pins that replay would not see it if something did. The row's first
// packet is handed in before the metadata, so the parked-early path is
// covered too.
func TestTailCRCWriteAfterHandle(t *testing.T) {
	for _, scheme := range []quant.Scheme{quant.RHT, quant.SD} {
		cfg := Config{Params: quant.Params{Scheme: scheme}, RowSize: 1 << 10}
		enc, err := NewEncoderWith(WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		grad := gaussianGrad(130, 3<<10)
		msg, err := enc.Encode(1, ingestMsg, grad)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range replayWorkers {
			want, err := NewDecoderWith(ingestMsg, WithConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewDecoderWith(ingestMsg, WithConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			wantSum, _ := NewSumDecoder(ingestMsg, 1, WithConfig(cfg))
			gotSum, _ := NewSumDecoder(ingestMsg, 1, WithConfig(cfg))
			early := msg.Data[0]
			order := append(append([][]byte{early}, msg.Meta...), msg.Data[1:]...)
			for _, pkt := range order {
				if err := want.Handle(pkt); err != nil {
					t.Fatal(err)
				}
				if err := wantSum.Handle(pkt); err != nil {
					t.Fatal(err)
				}
				mine := bytes.Clone(pkt)
				if err := got.Handle(mine); err != nil {
					t.Fatal(err)
				}
				if err := gotSum.Handle(mine); err != nil {
					t.Fatal(err)
				}
				// Bytes 36–40 are the tail CRC; flipping them fails a whole
				// packet's check while the decoders hold the same bytes.
				for i := 36; i < 40; i++ {
					mine[i] ^= 0xff
				}
				if _, err := wire.Validate(mine); err == nil {
					t.Fatalf("a flipped tail CRC still validates: % x", mine[:wire.HeaderSize])
				}
			}
			label := fmt.Sprintf("%v workers=%d", scheme, workers)
			a, as, err := want.DecodeParallel(len(grad), workers)
			if err != nil {
				t.Fatal(err)
			}
			b, bs, err := got.DecodeParallel(len(grad), workers)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, label, b, a)
			if as != bs || as.TrimmedPackets != 0 || as.TrimmedCoords != 0 {
				t.Fatalf("%s: stats %+v, untouched buffers %+v", label, bs, as)
			}
			a, as, err = wantSum.reconstruct(len(grad), workers)
			if err != nil {
				t.Fatal(err)
			}
			b, bs, err = gotSum.reconstruct(len(grad), workers)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, label+" sum", b, a)
			if as != bs {
				t.Fatalf("%s sum: stats %+v, untouched buffers %+v", label, bs, as)
			}
		}
	}
}

// TestParkedLogBounded: a row parks at most twice the packets its senders
// emit (a SumDecoder, to which a duplicate is news too, maxPendingPerRow
// more). Past that, news is a counted rejection and the log does not grow;
// a Decoder still takes duplicates, which park nothing.
func TestParkedLogBounded(t *testing.T) {
	cfg := Config{Params: quant.Params{Scheme: quant.SQ}, RowSize: 1 << 9, Flow: 1}
	enc, err := NewEncoderWith(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := enc.Encode(1, ingestMsg, gaussianGrad(140, cfg.RowSize))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := wire.ParseDataPacket(msg.Data[0])
	if err != nil {
		t.Fatal(err)
	}
	// One-coordinate packets: each is news, and there are far more of them
	// than the two packets the row's sender emits.
	var slivers [][]byte
	for i := 0; i < 20; i++ {
		h := dp.Header
		h.Start, h.Count = uint32(i), 1
		pkt, err := wire.BuildDataPacket(h, dp.Heads[i:i+1], dp.Tails[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		slivers = append(slivers, pkt)
	}
	if len(msg.Data) != 2 {
		t.Fatalf("row has %d packets, test assumes 2", len(msg.Data))
	}
	const limit = 2 * 2

	dec, err := NewDecoderWith(ingestMsg, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Handle(msg.Meta[0]); err != nil {
		t.Fatal(err)
	}
	for i, pkt := range slivers {
		if err := dec.Handle(pkt); (err == nil) != (i < limit) {
			t.Fatalf("Decoder: sliver %d: %v, limit %d", i, err, limit)
		}
	}
	for _, pkt := range slivers[:limit] { // duplicates of what is parked: benign, even now
		if err := dec.Handle(pkt); err != nil {
			t.Fatalf("Decoder: duplicate on a full log: %v", err)
		}
	}
	row := dec.rows[0]
	if st := dec.Stats(); len(row.log) != limit || cap(row.log) > limit || st.Packets != 2*limit || st.RejectedPackets != len(slivers)-limit {
		t.Fatalf("Decoder: %d parked (cap %d), stats %+v; want %d parked, %d accepted, %d rejected",
			len(row.log), cap(row.log), st, limit, 2*limit, len(slivers)-limit)
	}
	got, st, err := dec.Reconstruct(cfg.RowSize)
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedCoords != cfg.RowSize-limit {
		t.Fatalf("Decoder: %d coordinates dropped, want all but %d", st.DroppedCoords, limit)
	}
	for i, v := range got {
		if (math.Float32bits(v) != 0) != (i < limit) {
			t.Fatalf("coordinate %d decodes to %v: only the %d parked slivers may decode", i, v, limit)
		}
	}

	sum, err := NewSumDecoder(ingestMsg, 1, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Handle(msg.Meta[0]); err != nil {
		t.Fatal(err)
	}
	const sumLimit = limit + maxPendingPerRow
	for i := 0; i < sumLimit+40; i++ {
		if err := sum.Handle(msg.Data[0]); (err == nil) != (i < sumLimit) {
			t.Fatalf("SumDecoder: copy %d: %v, limit %d", i, err, sumLimit)
		}
	}
	if st := sum.Stats(); len(sum.rows[0].log) != sumLimit || st.Packets != sumLimit || st.RejectedPackets != 40 {
		t.Fatalf("SumDecoder: %d parked, stats %+v; want %d parked and accepted, 40 rejected", len(sum.rows[0].log), st, sumLimit)
	}
}

// TestConcurrentReplaySharedBuffers: decoders on different goroutines — a
// broadcast's receivers on different shards — park the same packet buffers
// and reconstruct at the same time, each taking a scratch set from the shared
// pool. Every one must decode what a lone serial decoder does; under -race
// this is the check that replay only reads what it shares.
func TestConcurrentReplaySharedBuffers(t *testing.T) {
	cfg := Config{Params: quant.Params{Scheme: quant.SD}, RowSize: 1 << 9}
	enc, err := NewEncoderWith(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	grad := gaussianGrad(150, 6<<9)
	msg, err := enc.Encode(1, ingestMsg, grad)
	if err != nil {
		t.Fatal(err)
	}
	pkts := append(append([][]byte{}, msg.Meta...), msg.Data...)
	for i := range msg.Data {
		if i%3 == 0 {
			pkts = append(pkts, trimTo(t, msg.Data[i], 0)) // no news: counted, never parked
		}
	}
	want, wantStats := decodeAt(t, "serial", cfg, len(grad), pkts)

	const receivers = 4
	var wg sync.WaitGroup
	errs := make(chan error, receivers)
	for g := 0; g < receivers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dec, err := NewDecoderWith(ingestMsg, WithConfig(cfg))
			if err != nil {
				errs <- err
				return
			}
			for _, pkt := range pkts {
				if err := dec.Handle(pkt); err != nil {
					errs <- err
					return
				}
			}
			for repeat := 0; repeat < 3; repeat++ {
				got, stats, err := dec.DecodeParallel(len(grad), 1+(g+repeat)%3)
				if err != nil {
					errs <- err
					return
				}
				if stats != wantStats {
					errs <- fmt.Errorf("receiver %d: stats %+v, want %+v", g, stats, wantStats)
					return
				}
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						errs <- fmt.Errorf("receiver %d repeat %d: coordinate %d differs", g, repeat, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
