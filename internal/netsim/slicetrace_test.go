package netsim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateSlices = flag.Bool("update-slices", false,
	"re-record testdata/slice_trace_digests.txt (only right when a simulated outcome was meant to move)")

// The slice trace pins the state a fabric shows between RunUntil calls,
// slice by slice: after every 1 µs slice, the clock, Pending(), the
// processed-event total and every port's Stats, Backlog() and
// QueuedBytes(). Each cell runs at 1, 2 and 4 shards, must give the same
// trace at each, and hashes into one line per shard count of
// testdata/slice_trace_digests.txt. The cells are the corners of the
// transmitter an event-count change can get wrong: a trimming incast whose
// high queue runs deep, 400 Gb/s links on which a 40 B packet serializes
// in no time, zero-delay links, fault-delayed re-admission and a flapping
// link.

// sliceSend is one scheduled send of a slice-trace cell: at at, host src
// sends dst a run of trimmable payloads (rows, one row length per entry)
// and then raw packets of the given sizes, the even-numbered ones at high
// priority.
type sliceSend struct {
	at       Time
	src, dst int
	rows     []int
	raw      []int
}

// sliceCell is one slice-trace scenario on a k = 4 fat tree of 10 Gb/s,
// 1 µs links.
type sliceCell struct {
	name  string
	queue QueueConfig
	// relink lists host links to rebuild before partitioning, both
	// directions, by host index.
	relink map[int]LinkConfig
	// perturb attaches faults and flaps after partitioning.
	perturb func(topo *Topology)
	sends   []sliceSend
	// covers reports whether a drained run reached the cell's corner.
	covers func(topo *Topology) bool
}

// relinkHost gives both directions of host h's access link the link l.
func relinkHost(h *Host, l LinkConfig) {
	for _, p := range []*Port{h.uplink, h.uplink.peer.portTo(h.id)} {
		p.link, p.txTable = l, nil // serialize divides without a table
	}
}

// rows returns n row lengths, each coords long.
func rows(n, coords int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = coords
	}
	return out
}

// somePort reports whether any port of topo satisfies ok.
func somePort(topo *Topology, ok func(p *Port) bool) bool {
	for _, sw := range topo.Switches() {
		for _, p := range sw.Ports() {
			if ok(p) {
				return true
			}
		}
	}
	for _, h := range topo.Hosts {
		if ok(h.uplink) {
			return true
		}
	}
	return false
}

// sliceTrace runs c at the given shard count and returns its trace.
func sliceTrace(t *testing.T, c sliceCell, shards int) []byte {
	t.Helper()
	sim := NewSim()
	topo, err := FabricSpec{
		Kind:     "fattree",
		K:        4,
		Link:     LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond},
		Queue:    c.queue,
		ECMPSeed: 13,
	}.Build(sim)
	if err != nil {
		t.Fatal(err)
	}
	for h, l := range c.relink {
		relinkHost(topo.Hosts[h], l)
	}
	eng, err := ShardTopology(topo, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if c.perturb != nil {
		c.perturb(topo)
	}
	var ports []*Port
	for _, sw := range topo.Switches() {
		ports = append(ports, sw.Ports()...)
	}
	for _, h := range topo.Hosts {
		ports = append(ports, h.uplink)
	}
	for fi, s := range c.sends {
		h, dst, flow := topo.Hosts[s.src], topo.Hosts[s.dst].id, uint64(fi+1)
		var payloads [][]byte
		if len(s.rows) > 0 {
			payloads = messagePayloads(t, uint32(flow), 4, s.rows...)
		}
		h.sim.At(s.at, func() {
			h.SendRun(Packet{Dst: dst, FlowID: flow}, payloads)
			for i, size := range s.raw {
				pkt := h.sim.NewPacket()
				pkt.Dst, pkt.Size, pkt.FlowID, pkt.Seq = dst, size, flow, uint64(1000+i)
				if i%2 == 0 {
					pkt.Prio = PrioHigh
				}
				h.Send(pkt)
			}
		})
	}

	var out bytes.Buffer
	for deadline := Microsecond; ; deadline += Microsecond {
		eng.RunUntil(deadline)
		if err := topo.Net.Audit(); err != nil {
			t.Fatalf("%s, %d shards, after the slice to %v: %v", c.name, shards, deadline, err)
		}
		fmt.Fprintf(&out, "now=%d pending=%d processed=%d\n", eng.Now(), eng.Pending(), eng.Processed())
		for _, p := range ports {
			fmt.Fprintf(&out, " %d->%d %v backlog=%d queued=%d\n", p.owner, p.peer.ID(), p.Stats, p.Backlog(), p.QueuedBytes())
		}
		if eng.Pending() == 0 {
			if c.covers != nil && !c.covers(topo) {
				t.Fatalf("%s, %d shards: the run misses the corner the cell is for", c.name, shards)
			}
			return out.Bytes()
		}
		if deadline > 10*Millisecond {
			t.Fatalf("%s, %d shards: still %d events pending at %v", c.name, shards, eng.Pending(), deadline)
		}
	}
}

// TestShardSliceTrace replays each cell at 1, 2 and 4 shards, checks that
// the traces agree, and compares their digests with
// testdata/slice_trace_digests.txt.
func TestShardSliceTrace(t *testing.T) {
	trim := QueueConfig{CapacityBytes: 6_000, HighCapacityBytes: 256 << 10, Mode: TrimOverflow}
	drop := QueueConfig{CapacityBytes: 8_000, Mode: DropTail}
	fast := LinkConfig{Bandwidth: Gbps(400), Delay: Microsecond}
	still := LinkConfig{Bandwidth: Gbps(10)}
	tiny := []int{40, 40, 40, 40, 40, 40, 1500, 40, 40, 40}
	cells := []sliceCell{
		{
			name: "trim-incast", queue: trim,
			sends: []sliceSend{
				{at: 0, src: 4, dst: 0, rows: rows(60, 2048), raw: []int{64, 64}},
				{at: 100, src: 5, dst: 0, rows: rows(60, 2048)},
				{at: 200, src: 8, dst: 0, rows: rows(60, 2048), raw: []int{200}},
				{at: 300, src: 12, dst: 0, rows: rows(60, 2048)},
				{at: 300, src: 13, dst: 0, rows: append(rows(40, 1024), 2048, 512)},
				{at: 2 * Microsecond, src: 1, dst: 0, rows: rows(30, 2048)},
				{at: 20 * Microsecond, src: 9, dst: 0, rows: []int{2048, 2048}},
			},
			covers: func(topo *Topology) bool {
				p := topo.Hosts[0].uplink.peer.portTo(0)
				return p.Stats.Trimmed >= 50 && p.Stats.MaxQueueBytes >= 3*p.cfg.CapacityBytes
			},
		},
		{
			name: "400g", queue: trim,
			relink: map[int]LinkConfig{0: fast, 1: fast, 2: fast, 8: fast},
			sends: []sliceSend{
				{at: 0, src: 0, dst: 1, raw: tiny},
				{at: 0, src: 0, dst: 8, rows: []int{512, 512}, raw: tiny},
				{at: 50, src: 1, dst: 0, raw: tiny},
				{at: 50, src: 2, dst: 1, raw: tiny, rows: []int{1024}},
				{at: 3 * Microsecond, src: 8, dst: 0, raw: tiny},
				{at: 3 * Microsecond, src: 5, dst: 1, rows: []int{2048, 2048}},
			},
			covers: func(topo *Topology) bool {
				p := topo.Hosts[1].uplink.peer.portTo(1)
				return p.serialize(40) == 0 && p.Stats.Transmitted >= 20
			},
		},
		{
			name: "zero-delay", queue: trim,
			relink: map[int]LinkConfig{4: still, 5: still, 6: still, 12: still},
			sends: []sliceSend{
				{at: 0, src: 4, dst: 5, rows: rows(12, 2048), raw: []int{64, 1500, 64}},
				{at: 0, src: 6, dst: 5, rows: rows(8, 2048), raw: []int{64}},
				{at: 10, src: 12, dst: 5, rows: rows(10, 2048)},
				{at: 500, src: 0, dst: 4, rows: []int{1024, 1024}, raw: []int{1500, 40}},
				{at: 4 * Microsecond, src: 5, dst: 12, raw: []int{1500, 1500, 40}},
			},
			covers: func(topo *Topology) bool {
				p := topo.Hosts[5].uplink.peer.portTo(5)
				return p.link.Delay == 0 && p.Stats.Transmitted >= 20
			},
		},
		{
			name: "fault-admit", queue: trim,
			perturb: func(topo *Topology) {
				edge, agg := topo.Tier(TierEdge), topo.Tier(TierAgg)
				topo.Net.InjectFaults(topo.Hosts[4].id, edge[2].id, FaultConfig{
					Seed: 3, ReorderRate: 0.4, ReorderDelay: 700, DuplicateRate: 0.1,
				})
				topo.Net.InjectFaults(edge[0].id, agg[0].id, FaultConfig{
					Seed: 4, ReorderRate: 0.3, ReorderDelay: 2 * Microsecond,
				})
			},
			sends: []sliceSend{
				{at: 0, src: 4, dst: 0, rows: rows(20, 2048), raw: []int{64, 1500, 64, 1500}},
				{at: 0, src: 1, dst: 9, rows: rows(20, 2048), raw: []int{1500, 64}},
				{at: 200, src: 0, dst: 4, rows: rows(10, 2048), raw: []int{1500, 1500}},
				{at: 300, src: 0, dst: 12, rows: rows(20, 2048)},
				{at: 3 * Microsecond, src: 12, dst: 4, rows: rows(10, 2048)},
			},
			covers: func(topo *Topology) bool {
				return somePort(topo, func(p *Port) bool { return p.faults != nil && p.faults.Stats.Reordered >= 5 })
			},
		},
		{
			name: "flap", queue: drop,
			perturb: func(topo *Topology) {
				edge, agg := topo.Tier(TierEdge), topo.Tier(TierAgg)
				topo.Net.FlapLink(edge[0].id, agg[0].id, 2*Microsecond, 3*Microsecond)
				topo.Net.FlapLink(agg[2].id, edge[2].id, 4*Microsecond, 500)
			},
			sends: []sliceSend{
				{at: 0, src: 0, dst: 5, rows: rows(20, 2048), raw: []int{1500, 1500}},
				{at: 0, src: 1, dst: 4, rows: rows(20, 2048)},
				{at: 100, src: 9, dst: 0, rows: rows(10, 2048), raw: []int{64}},
				{at: 3 * Microsecond, src: 5, dst: 1, rows: rows(10, 2048), raw: []int{1500}},
			},
			covers: func(topo *Topology) bool {
				return somePort(topo, func(p *Port) bool { return p.Stats.DownDrops > 0 })
			},
		},
	}

	var out bytes.Buffer
	for _, c := range cells {
		var ref []byte
		for _, shards := range []int{1, 2, 4} {
			trace := sliceTrace(t, c, shards)
			if ref == nil {
				ref = trace
			} else if !bytes.Equal(trace, ref) {
				t.Errorf("%s: the trace at %d shards differs from 1 shard's", c.name, shards)
			}
			fmt.Fprintf(&out, "%s shards=%d %x\n", c.name, shards, sha256.Sum256(trace))
		}
	}

	path := filepath.Join("testdata", "slice_trace_digests.txt")
	if *updateSlices {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("slice-trace digests moved:\n got:\n%s want:\n%s", out.Bytes(), want)
	}
}
