package netsim

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

// corpusPayloads returns every []byte value of package wire's checked-in
// fuzz corpus: packets of every kind, trimmed, corrupted and truncated.
func corpusPayloads(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob("../wire/testdata/fuzz/*/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no wire fuzz corpus (%v)", err)
	}
	var out [][]byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "[]byte("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(v, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				out = append(out, []byte(s))
			}
		}
	}
	return out
}

// messagePayloads encodes rows of the given lengths with a sign codec of
// tailBits-bit tails (0: full precision) and packs them as one message's
// data packets, the way a transport hands them to SendRun.
func messagePayloads(t *testing.T, flow uint32, tailBits int, rowLens ...int) [][]byte {
	t.Helper()
	c := quant.MustNew(quant.Params{Scheme: quant.Sign, TailBits: tailBits})
	r := xrand.New(uint64(flow) + 11)
	var out [][]byte
	for i, n := range rowLens {
		row := make([]float32, n)
		for j := range row {
			row[j] = float32(r.NormFloat64())
		}
		enc, err := c.Encode(row, uint64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		_, data, err := wire.PackRow(flow, 1, uint32(i), enc)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

// TestStampedTrimLenMatchesParse pins the trim decision a port makes from
// a record's stamp to the one it would make by parsing the payload
// (wire.TrimLen), for every buffer of the wire fuzz corpus plus metadata,
// foreign, trimmed, partially trimmed, aggregate and oversized packets, at
// every target from below the header to past the packet, and for every
// place a record is stamped: Host.Send, a run's table, a run record that
// reads its own header (the table covers only parsed data payloads up to
// 64 KiB), and a fault's corrupted clone, whose flipped bits may move its
// head boundary. Runs use the table for every packet of a real message
// (rows of two lengths), and none for a fifth length, a second Q, or a
// metadata payload.
func TestStampedTrimLenMatchesParse(t *testing.T) {
	sim := NewSim()
	data := gradPayload(t, 512)
	boundary, _, _ := wire.TrimGeometry(data)
	foreign := bytes.Clone(data)
	foreign[3] |= 0x40
	sums := make([]float32, 64)
	for i := range sums {
		sums[i] = float32(i) - 20.5
	}
	agg, err := wire.BuildAggPacket(wire.Header{Flow: 2, Count: 64}, sums, sums)
	if err != nil {
		t.Fatal(err)
	}
	bufs := append(corpusPayloads(t),
		data, foreign, agg,
		wire.BuildMetaPacket(wire.Header{Flow: 1}, 1, 10, 1.0),
		wire.Trim(bytes.Clone(data), 0),
		wire.Trim(bytes.Clone(data), boundary+37),
		wire.Trim(bytes.Clone(agg), wire.HeaderSize+100),
		append(bytes.Clone(data), make([]byte, 1<<16)...))
	check := func(how string, pkt *Packet) {
		t.Helper()
		for target := 0; target <= len(pkt.Payload)+wire.NetOverhead+2; target++ {
			if got, want := pkt.trimLen(target), wire.TrimLen(pkt.Payload, target-wire.NetOverhead); got != want {
				t.Fatalf("%s % x… target %d: stamped trimLen %d, TrimLen %d", how, pkt.Payload[:min(len(pkt.Payload), 8)], target, got, want)
			}
		}
	}
	faults := newFaultInjector(sim, FaultConfig{Seed: 5, CorruptRate: 1, CorruptBits: 16})
	var tabled, trimmable, trimmedIn, aggIn, partial, moved int
	for _, buf := range bufs {
		run := pktRun{payloads: [][]byte{buf}}
		covered := run.geo.add(buf)
		pkt := runPacket(sim, &Packet{}, &run, 0)
		h, _ := wire.ParseHeader(buf)
		head, _, ok := wire.TrimGeometry(buf)
		if want := ok && max(len(buf), head) <= math.MaxUint16; covered != want {
			t.Fatalf("% x: table covers it %v, want %v", buf[:min(len(buf), 8)], covered, want)
		}
		check("run", pkt)
		sent := stampedRecord(sim, Packet{Payload: buf})
		check("Send", sent)
		if sent.trimHead != pkt.trimHead || sent.trimQ != pkt.trimQ {
			t.Fatalf("% x: Send stamps (%d, %d), the run (%d, %d)", buf[:min(len(buf), 8)], sent.trimHead, sent.trimQ, pkt.trimHead, pkt.trimQ)
		}
		if len(buf) > 0 {
			c := faults.corrupt(pkt)
			check("corrupted", c)
			if c.trimHead != pkt.trimHead {
				moved++
			}
			sim.releasePacket(c)
		}
		if covered {
			tabled++
		}
		if ok {
			trimmable++
			if h.Trimmed() {
				trimmedIn++
			}
			if h.IsAgg() {
				aggIn++
			}
			for target := range len(buf) + wire.NetOverhead {
				if want := pkt.trimLen(target); want > head && want < len(buf) {
					partial++
				}
			}
		}
		sim.releasePacket(pkt)
		sim.releasePacket(sent)
	}
	if tabled == 0 || tabled == len(bufs) || trimmable == len(bufs) || trimmedIn == 0 || aggIn == 0 || partial == 0 || moved == 0 {
		t.Fatalf("of %d buffers the table covers %d, %d are trimmable (%d trimmed, %d aggregate), %d partial-tail cuts, %d corruptions moved the head boundary: want each > 0 and not every buffer tabled or trimmable",
			len(bufs), tabled, trimmable, trimmedIn, aggIn, partial, moved)
	}

	msg := messagePayloads(t, 3, 0, 1000, 1000, 700)
	runs := []struct {
		name     string
		payloads [][]byte
		covered  bool
	}{
		{"message", msg, true},
		{"five lengths", messagePayloads(t, 4, 0, 100, 200, 300, 400, 500), false},
		{"two Qs", append(messagePayloads(t, 5, 0, 100), messagePayloads(t, 5, 15, 100)...), false},
		{"metadata", [][]byte{msg[0], wire.BuildMetaPacket(wire.Header{Flow: 1}, 1, 10, 1.0)}, false},
	}
	for _, r := range runs {
		run := pktRun{payloads: r.payloads}
		covered := true
		for _, pl := range r.payloads {
			covered = covered && run.geo.add(pl)
		}
		if covered != r.covered {
			t.Fatalf("%s: table covers the run %v, want %v", r.name, covered, r.covered)
		}
		if !covered {
			run.geo = runGeometry{}
		}
		for i := range r.payloads {
			pkt := runPacket(sim, &Packet{}, &run, i)
			check(r.name, pkt)
			sim.releasePacket(pkt)
		}
	}
}

// seenPacket is what a receiving handler saw of one packet: payload is
// the delivered slice itself, kept past the handler.
type seenPacket struct {
	flow, seq uint64
	trimmed   bool
	payload   []byte
}

// TestTrimViewMatchesEagerTrim pins the cut view against the eager trim it
// replaced: a trimming port cuts a shared payload to a view of its prefix,
// and the receiving handler reads that view — the sender's own array,
// capped at the kept length — on the plain Sim and at 2 shards (the
// dumbbell's bottleneck is the shard boundary, so the view crosses shards).
// Each delivered trim must pass wire.Validate and parse to the start,
// count, tail count, heads and tails of wire.Trim's marked copy of the sent
// bytes. Senders mix runs the geometry table stamps, a run it does not
// cover and single Sends, each of which must be trimmed, at head-boundary
// and multi-level targets. The chaos rows put duplicating and corrupting
// faults downstream of the trimming port (they clone views) and on it
// (they clone before the trim, so a corrupted clone is trimmed by its own
// header): a delivered copy must then be the view's bytes or differ from
// them by one flipped bit, before or after the trim. Sender buffers must
// read as sent afterwards.
func TestTrimViewMatchesEagerTrim(t *testing.T) {
	rows := []struct {
		name   string
		target int
		faults string // "", "after" (downstream of the trim), "before" (at the trimming port)
	}{
		{"head", 0, ""},
		{"partial", 400, ""},
		{"chaos after", 400, "after"},
		{"chaos before", 0, "before"},
	}
	for _, row := range rows {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", row.name, shards), func(t *testing.T) {
				checkTrimViews(t, row.target, row.faults, shards)
			})
		}
	}
}

func checkTrimViews(t *testing.T, target int, faults string, shards int) {
	sim := NewSim()
	link := LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}
	topo := NewDumbbell(sim, 4, 2, link, link,
		QueueConfig{CapacityBytes: 12 << 10, HighCapacityBytes: 1 << 20, Mode: TrimOverflow, TrimTarget: target})
	run := sim.Run
	if shards > 0 {
		eng, err := ShardTopology(topo, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		run = eng.Run
	}
	left, right := topo.Tier(TierEdge)[0], topo.Tier(TierEdge)[1]
	var injectors []*FaultInjector
	cfg := FaultConfig{Seed: 9, DuplicateRate: 0.1, CorruptRate: 0.1}
	switch faults {
	case "after":
		for _, h := range topo.Hosts[4:] {
			ab, _ := topo.Net.InjectFaults(right.ID(), h.ID(), cfg)
			injectors = append(injectors, ab)
		}
	case "before":
		ab, _ := topo.Net.InjectFaults(left.ID(), right.ID(), cfg)
		injectors = append(injectors, ab)
	}

	// sent[flow] lists the payloads of a flow; a packet's Seq indexes it.
	sent := map[uint64][][]byte{}
	for i, h := range topo.Hosts[:4] {
		dst := topo.Hosts[4+i%2].ID()
		flow := uint64(i)
		if i == 3 {
			sent[flow] = messagePayloads(t, uint32(flow), 0, 300, 500, 700, 900, 1100)
		} else {
			sent[flow] = messagePayloads(t, uint32(flow), 0, 1000, 1000, 700, 1000)
		}
		h.SendRun(Packet{Dst: dst, FlowID: flow}, sent[flow])
		single := 100 + flow
		sent[single] = messagePayloads(t, uint32(single), 0, 800)
		for j, pl := range sent[single] {
			h.Send(record(h.Sim(), Packet{Dst: dst, Size: len(pl) + wire.NetOverhead, Payload: pl, FlowID: single, Seq: uint64(j)}))
		}
	}
	orig := map[uint64][][]byte{}
	for flow, pls := range sent {
		for _, pl := range pls {
			orig[flow] = append(orig[flow], bytes.Clone(pl))
		}
	}
	// Handlers run on shard goroutines: each receiver logs into its own slot.
	got := make([][]seenPacket, 2)
	for i, h := range topo.Hosts[4:] {
		h.Handler = func(p *Packet) {
			if p.Size != len(p.Payload)+wire.NetOverhead {
				t.Errorf("flow %d seq %d delivered with size %d, %d payload bytes",
					p.FlowID, p.Seq, p.Size, len(p.Payload))
			}
			got[i] = append(got[i], seenPacket{p.FlowID, p.Seq, p.Trimmed, p.Payload})
		}
	}
	run()
	if err := topo.Net.Audit(); err != nil {
		t.Fatal(err)
	}

	// trims counts trimmed deliveries by how their record was stamped: the
	// run table (flows 0-2), the run it does not cover (3), Send (100+).
	var trims [3]int
	var views, copies, flipped, corrupted int
	for _, d := range append(got[0], got[1]...) {
		s, buf := orig[d.flow][d.seq], sent[d.flow][d.seq]
		want := s
		if d.trimmed {
			trims[min(d.flow/3, 2)]++
			want = s[:wire.TrimLen(s, target-wire.NetOverhead)]
		}
		if !bytes.Equal(d.payload, want) {
			if faults == "" || !oneFlipFrom(d.payload, want, s, d.trimmed, target) {
				t.Fatalf("flow %d seq %d (trimmed %v): delivered\n %x\nwant\n %x", d.flow, d.seq, d.trimmed, d.payload, want)
			}
			flipped++
			continue
		}
		if d.trimmed {
			if err := matchesMarked(d.payload, s, target); err != nil {
				t.Fatalf("flow %d seq %d: %v", d.flow, d.seq, err)
			}
		}
		switch {
		case &d.payload[0] == &buf[0] && cap(d.payload) == len(want):
			views++
		case &d.payload[0] == &buf[0]:
			t.Fatalf("flow %d seq %d: a view of %d bytes with capacity %d reaches past the cut", d.flow, d.seq, len(d.payload), cap(d.payload))
		case faults == "":
			t.Fatalf("flow %d seq %d: the receiver read a copy of the sender's bytes", d.flow, d.seq)
		default:
			copies++ // a fault's duplicate
		}
	}
	for _, f := range injectors {
		corrupted += f.Stats.Corrupted
	}
	if flipped > corrupted || faults != "" && (corrupted == 0 || copies == 0) || views == 0 {
		t.Fatalf("%d deliveries differ by a flipped bit, %d packets corrupted, %d views, %d duplicates delivered", flipped, corrupted, views, copies)
	}
	if trims[0] == 0 || trims[1] == 0 || trims[2] == 0 {
		t.Fatalf("trimmed deliveries stamped by the run table, a record's build and Send: %v; want each > 0", trims)
	}
	for flow, pls := range sent {
		for j, pl := range pls {
			if !bytes.Equal(pl, orig[flow][j]) {
				t.Fatalf("flow %d payload %d: the fabric wrote a sender's buffer", flow, j)
			}
		}
	}
}

// matchesMarked checks a delivered cut view against wire.Trim's marked copy
// of the sent bytes: both pass wire.Validate, both are cuts by the length
// predicate, and both parse to the same start, count and tail count, and
// unpack to the same heads and tails — all a decode reads of a packet.
func matchesMarked(view, sent []byte, target int) error {
	marked := wire.Trim(bytes.Clone(sent), target-wire.NetOverhead)
	if err := wire.Validate(view); err != nil {
		return fmt.Errorf("the view fails Validate: %v", err)
	}
	a, err := wire.ParseDataPacket(view)
	if err != nil {
		return err
	}
	b, err := wire.ParseDataPacket(marked)
	if err != nil {
		return err
	}
	if !a.IsCut(len(view)) || !b.IsCut(len(marked)) || len(view) != len(marked) {
		return fmt.Errorf("view of %d bytes cut %v, marked copy of %d cut %v", len(view), a.IsCut(len(view)), len(marked), b.IsCut(len(marked)))
	}
	if a.Start != b.Start || a.Count != b.Count || a.TailCount != b.TailCount ||
		!slices.Equal(a.Heads, b.Heads) || !slices.Equal(a.Tails[:a.TailCount], b.Tails[:b.TailCount]) {
		return fmt.Errorf("the view parses to start %d count %d tails %d, the marked copy to %d %d %d, or their values differ",
			a.Start, a.Count, a.TailCount, b.Start, b.Count, b.TailCount)
	}
	return nil
}

// oneFlipFrom reports whether got is want with one bit flipped (corrupted
// after the trim, or before it outside what decides the cut), or, for a
// trimmed delivery, the cut of sent with one bit flipped (corrupted before
// the trim, which then parsed the corrupted header).
func oneFlipFrom(got, want, sent []byte, trimmed bool, target int) bool {
	if len(got) == len(want) {
		diff := 0
		for i := range got {
			diff += bits.OnesCount8(got[i] ^ want[i])
		}
		if diff == 1 {
			return true
		}
	}
	if !trimmed {
		return false
	}
	for pos := range len(sent) * 8 {
		c := bytes.Clone(sent)
		c[pos/8] ^= 1 << (pos % 8)
		if bytes.Equal(c[:wire.TrimLen(c, target-wire.NetOverhead)], got) {
			return true
		}
	}
	return false
}

// TestTrimmedHeadDroppedDownstreamAllocatesNothing: a head trimmed at one
// hop and dropped at the next is never copied. Two senders overflow a
// dumbbell's trimming bottleneck, and the far switch's port to the
// receiver has no high-priority room, so every trimmed head dies there: a
// warmed flood must allocate far less than one copy of the heads it cut.
func TestTrimmedHeadDroppedDownstreamAllocatesNothing(t *testing.T) {
	sim := NewSim()
	link := LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}
	topo := NewDumbbell(sim, 2, 1, link, link,
		QueueConfig{CapacityBytes: 6 << 10, HighCapacityBytes: 1 << 20, Mode: TrimOverflow})
	left, right := topo.Tier(TierEdge)[0], topo.Tier(TierEdge)[1]
	dst := topo.Hosts[2].ID()
	right.Port(dst).cfg.HighCapacityBytes = 1
	trimPort, dropPort := left.Port(right.ID()), right.Port(dst)
	payloads := [][][]byte{
		messagePayloads(t, 1, 0, 1000, 1000, 1000, 1000),
		messagePayloads(t, 2, 0, 1000, 1000, 1000, 1000),
	}
	delivered := 0
	topo.Hosts[2].Handler = func(p *Packet) {
		if p.Trimmed {
			t.Error("a trimmed head reached the receiver")
		}
		delivered++
	}
	flood := func() {
		for i, h := range topo.Hosts[:2] {
			for range 8 {
				h.SendRun(Packet{Dst: dst, FlowID: uint64(i)}, payloads[i])
			}
		}
		sim.Run()
	}
	flood() // warm pools, queue arrays and the run table
	trims, drops := trimPort.Stats.Trimmed, dropPort.Stats.Dropped
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	flood()
	runtime.ReadMemStats(&m1)
	trims, drops = trimPort.Stats.Trimmed-trims, dropPort.Stats.Dropped-drops
	if trims < 50 || drops != trims || delivered == 0 {
		t.Fatalf("one flood trimmed %d, dropped %d downstream, delivered %d: the scenario must trim and drop every head", trims, drops, delivered)
	}
	keep := wire.TrimLen(payloads[0][0], -wire.NetOverhead)
	grew, copies := m1.TotalAlloc-m0.TotalAlloc, uint64(trims*keep)
	t.Logf("a flood trimmed %d heads and allocated %d bytes", trims, grew)
	if grew > copies/8 {
		t.Fatalf("a flood allocated %d bytes; copying its %d trimmed heads would be %d", grew, trims, copies)
	}
}

// TestMergedRecordRestamps: an aggregating port that folds a cut view
// — arriving, or queued in the high queue, which is scanned first — into a
// stamped packet builds the aggregate an eager trim's marked copy would
// have given, without copying the view. The merged record holds a buffer
// of its own, a view of neither operand, and carries the aggregate's own
// geometry, so a later trim decides as its header says; its receiver reads
// that buffer uncopied.
func TestMergedRecordRestamps(t *testing.T) {
	for _, viewQueued := range []bool{false, true} {
		t.Run(fmt.Sprintf("view queued=%v", viewQueued), func(t *testing.T) {
			checkMergedRecord(t, viewQueued)
		})
	}
}

func checkMergedRecord(t *testing.T, viewQueued bool) {
	sim := NewSim()
	star := NewStar(sim, 3, fastLink(), QueueConfig{CapacityBytes: 1 << 20, AggregateTrimmable: true, Mode: TrimOverflow})
	port := star.Tier(TierEdge)[0].Port(2)
	port.metaOf = func(flow, msg, row uint32) (wire.MetaInfo, bool) {
		return wire.MetaInfo{Scheme: quant.Sign, Scale: 0.5}, true
	}
	stamped := func(flow uint32) *Packet {
		run := pktRun{payloads: messagePayloads(t, flow, 0, 300)}
		if !run.geo.add(run.payloads[0]) {
			t.Fatal("a data payload left the run table")
		}
		return runPacket(sim, &Packet{Dst: 2, FlowID: uint64(flow)}, &run, 0)
	}
	port.Enqueue(record(sim, Packet{Dst: 2, Size: 1500})) // keeps the wire busy
	queued, arriving := stamped(1), stamped(2)
	view := arriving
	if viewQueued {
		view = queued
	}
	eager := wire.Trim(bytes.Clone(view.Payload), -wire.NetOverhead)
	view.cut(view.trimLen(0))
	port.Enqueue(queued)
	a, b := queued.Payload, arriving.Payload
	operands := [][]byte{a, b}
	if viewQueued {
		a = eager
	} else {
		b = eager
	}
	want, err := wire.MergeTrimmable(a, b, port.metaOf)
	if err != nil {
		t.Fatal(err)
	}
	port.Enqueue(arriving)
	if port.Stats.Aggregated != 1 || !bytes.Equal(queued.Payload, want) {
		t.Fatalf("aggregated %d; merged payload matches the eager trim's merge: %v", port.Stats.Aggregated, bytes.Equal(queued.Payload, want))
	}
	aliases := &queued.Payload[0] == &operands[0][0] || &queued.Payload[0] == &operands[1][0]
	if head, q, _ := wire.TrimGeometry(want); aliases || queued.trimHead != uint32(head) || queued.trimQ != uint8(q) {
		t.Fatalf("merged record aliases an operand %v, stamp (%d, %d); want a buffer of its own, (%d, %d)",
			aliases, queued.trimHead, queued.trimQ, head, q)
	}
	for target := 0; target <= len(queued.Payload)+wire.NetOverhead; target += 7 {
		if got, want := queued.trimLen(target), wire.TrimLen(queued.Payload, target-wire.NetOverhead); got != want {
			t.Fatalf("target %d: merged record trims to %d, its header says %d", target, got, want)
		}
	}
	merged, delivered := &queued.Payload[0], 0
	star.Hosts[2].Handler = func(p *Packet) {
		if p.Payload == nil {
			return
		}
		delivered++
		if &p.Payload[0] != merged || !bytes.Equal(p.Payload, want) {
			t.Error("the receiver read a copy of the merged buffer, or other bytes")
		}
	}
	sim.Run()
	if delivered != 1 {
		t.Fatalf("%d aggregates delivered, want 1", delivered)
	}
	if err := star.Net.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestSendStampsOnlyWhatAPortMayTrim: Host.Send reads a payload's header
// only for a packet a port may cut — normal priority, on a fabric with a
// trimming switch — so a drop-tail fabric's Sends and high-priority ones
// leave the payload unread. The sender sits on a dumbbell's second shard,
// which must know its base simulator's fabric trims.
func TestSendStampsOnlyWhatAPortMayTrim(t *testing.T) {
	data := gradPayload(t, 512)
	head, _, _ := wire.TrimGeometry(data)
	for _, mode := range []QueueMode{TrimOverflow, DropTail} {
		for _, shards := range []int{0, 2} {
			sim := NewSim()
			topo := NewDumbbell(sim, 1, 1, fastLink(), fastLink(), QueueConfig{CapacityBytes: 1 << 20, Mode: mode})
			run := sim.Run
			if shards > 0 {
				eng, err := ShardTopology(topo, shards)
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				run = eng.Run
			}
			src, dst := topo.Hosts[1], topo.Hosts[0]
			var stamps []uint32
			dst.Handler = func(p *Packet) { stamps = append(stamps, p.trimHead) }
			for _, prio := range []Priority{PrioNormal, PrioHigh} {
				src.Send(record(src.Sim(), Packet{Dst: dst.ID(), Size: len(data) + wire.NetOverhead, Payload: data, Prio: prio}))
			}
			run()
			want := []uint32{0, 0}
			if mode == TrimOverflow {
				want[0] = uint32(head)
			}
			if !slices.Equal(stamps, want) {
				t.Fatalf("mode %d, %d shards: delivered stamps %v (normal, high), want %v", mode, shards, stamps, want)
			}
		}
	}
}
