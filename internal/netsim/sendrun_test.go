package netsim

import (
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

// TestSendRunMatchesSends pins Host.SendRun to the Sends it stands for:
// one script of runs, sent once through SendRun and once as per-packet
// Sends of the same records, must give the same delivery log (time, kind,
// priority, flow, seq, trim and payload of every delivery), the same
// clock, Pending(), clean Audit, PortStats and Backlog() at every RunUntil
// slice boundary, and the same registry export, on a plain Sim and at 2
// shards. The script covers an idle uplink, a busy one with high-priority
// sends mixed in, runs queued behind runs, empty runs, a run queued before
// its port goes down, and each fallback trigger: a high-priority template,
// a paused host, a down port, attached faults and a run past the NIC
// queue's capacity. The run arm also checks which runs queued as one
// entry, and both arms that every outer slice and payload handed over
// reads the same after the drain.
func TestSendRunMatchesSends(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			want := sendRunScript(t, shards, false)
			got := sendRunScript(t, shards, true)
			if got == want {
				return
			}
			g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := range min(len(g), len(w)) {
				if g[i] != w[i] {
					t.Fatalf("line %d:\n SendRun: %s\n   Sends: %s", i, g[i], w[i])
				}
			}
			t.Fatalf("SendRun's trace has %d lines, the Sends' %d", len(g), len(w))
		})
	}
}

// sendRunScript runs the script on a k = 4 trimming fat tree, each run
// through SendRun (useRun) or as per-packet Sends, and returns the trace.
func sendRunScript(t *testing.T, shards int, useRun bool) string {
	t.Helper()
	reg := obs.New()
	sim := NewSim()
	topo, err := FabricSpec{
		Kind:     "fattree",
		K:        4,
		Link:     LinkConfig{Bandwidth: Gbps(10), Delay: 2 * Microsecond},
		Queue:    QueueConfig{CapacityBytes: 24 << 10, HighCapacityBytes: 256 << 10, Mode: TrimOverflow},
		ECMPSeed: 5,
	}.Build(sim, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	runUntil, pending, snapshot := sim.RunUntil, sim.Pending, reg.Snapshot
	if shards > 0 {
		eng, err := ShardTopology(topo, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		runUntil, pending, snapshot = eng.RunUntil, eng.Pending, eng.Snapshot
	}
	hosts := topo.Hosts
	logs := make([]strings.Builder, len(hosts))
	for i, h := range hosts {
		h.Handler = func(p *Packet) {
			fmt.Fprintf(&logs[i], "%d %d<-%d %v prio=%d flow=%d seq=%d trimmed=%v len=%d/%d crc=%08x\n",
				h.sim.Now(), h.id, p.Src, p.Control, p.Prio, p.FlowID, p.Seq, isCut(p),
				p.Size, len(p.Payload), crc32.ChecksumIEEE(p.Payload))
		}
	}

	enc, err := core.NewEncoderWith(core.WithConfig(core.Config{
		Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 10,
	}))
	if err != nil {
		t.Fatal(err)
	}
	grad := make([]float32, 1<<14)
	r := xrand.New(7)
	for i := range grad {
		grad[i] = float32(r.NormFloat64() * 0.05)
	}
	msg, err := enc.Encode(1, 1, grad)
	if err != nil {
		t.Fatal(err)
	}
	data, metas := msg.Data, msg.Meta
	if len(data) < 48 || len(metas) < 4 {
		t.Fatalf("the message has %d data and %d metadata packets, want at least 48 and 4", len(data), len(metas))
	}
	huge := make([]byte, 1<<20)
	oversized := make([][]byte, 70) // 70 MiB: past a NIC queue's 64
	for i := range oversized {
		oversized[i] = huge
	}

	// handed keeps every outer slice each host sent (one list per host:
	// shards send concurrently), with a copy of its slice headers and a
	// checksum of each payload.
	type handover struct {
		outer, headers [][]byte
		crcs           []uint32
	}
	handed := make([][]handover, len(hosts))
	// send sends payloads from host i to host dst, as one SendRun or as
	// Sends; took says whether the run must queue as one entry.
	send := func(i, dst int, prio Priority, seq uint64, payloads [][]byte, took bool) {
		h := hosts[i]
		crcs := make([]uint32, len(payloads))
		for j, pl := range payloads {
			crcs[j] = crc32.ChecksumIEEE(pl)
		}
		handed[i] = append(handed[i], handover{payloads, slices.Clone(payloads), crcs})
		tmpl := Packet{Dst: hosts[dst].id, Prio: prio, FlowID: uint64(100*i + dst), Seq: seq, Control: seq}
		if !useRun {
			for j, pl := range payloads {
				pkt := h.sim.NewPacket()
				pkt.Dst, pkt.Prio, pkt.FlowID, pkt.Control = tmpl.Dst, prio, tmpl.FlowID, tmpl.Control
				pkt.Seq = seq + uint64(j)
				pkt.Payload, pkt.Size = pl, len(pl)+wire.NetOverhead
				h.Send(pkt)
			}
			return
		}
		live := func() int {
			if h.uplink.runs == nil {
				return 0
			}
			return h.uplink.runs.live()
		}
		before := live()
		h.SendRun(tmpl, payloads)
		if queued := live() > before; queued != took {
			t.Errorf("host %d at %v: a run of %d queued as one entry: %v, want %v", i, h.sim.Now(), len(payloads), queued, took)
		}
	}
	single := func(i, dst int, prio Priority, seq uint64, pl []byte) {
		h := hosts[i]
		pkt := h.sim.NewPacket()
		pkt.Dst, pkt.Prio, pkt.FlowID, pkt.Seq = hosts[dst].id, prio, uint64(100*i+dst), seq
		pkt.Payload, pkt.Size = pl, len(pl)+wire.NetOverhead
		h.Send(pkt)
	}
	at := func(i int, us int, fn func()) { hosts[i].sim.At(Time(us)*Microsecond, fn) }

	// An incast of runs from idle uplinks: hosts 1–8 into host 0, which
	// trims at host 0's edge switch.
	for i := 1; i <= 8; i++ {
		at(i, 0, func() { send(i, 0, PrioNormal, 0, data[:24], true) })
	}
	// A busy uplink: singles, then a run behind them, metadata overtaking
	// it, a single behind it, and a high-priority template, which falls back.
	at(2, 1, func() {
		single(2, 5, PrioNormal, 1000, data[30])
		single(2, 5, PrioNormal, 1001, data[31])
		send(2, 5, PrioNormal, 0, data[:20], true)
	})
	for _, us := range []int{3, 5, 7} {
		at(2, us, func() { single(2, 5, PrioHigh, uint64(2000+us), metas[us%len(metas)]) })
	}
	at(2, 4, func() { single(2, 5, PrioNormal, 1002, data[32]) })
	at(2, 6, func() { send(2, 5, PrioHigh, 3000, metas[:3], false) })
	// Runs behind runs, a one-packet run, and a run arriving while one
	// drains.
	at(3, 0, func() {
		send(3, 12, PrioNormal, 0, data[:16], true)
		single(3, 12, PrioNormal, 1000, data[40])
		send(3, 12, PrioNormal, 16, data[16:32], true)
		send(3, 12, PrioNormal, 32, data[32:33], true)
	})
	at(3, 20, func() { send(3, 12, PrioNormal, 48, data[:12], true) })
	// Empty runs, alone and between queued ones.
	at(4, 0, func() {
		send(4, 13, PrioNormal, 0, nil, false)
		send(4, 13, PrioNormal, 0, [][]byte{}, false)
		send(4, 13, PrioNormal, 0, data[:8], true)
		send(4, 13, PrioNormal, 8, nil, false)
		single(4, 13, PrioNormal, 1000, data[9])
	})
	// A paused host sends nothing and counts the drops; after, it sends.
	at(9, 10, func() { hosts[9].Pause(20 * Microsecond) })
	at(9, 15, func() { send(9, 14, PrioNormal, 0, data[:10], false) })
	at(9, 40, func() { send(9, 14, PrioNormal, 10, data[:10], true) })
	// A run queued before its port goes down still leaves (only arrivals
	// at a down port are dropped); one sent while it is down falls back.
	at(10, 10, func() { send(10, 15, PrioNormal, 0, data[:12], true) })
	at(10, 11, func() { hosts[10].uplink.SetDown(true) })
	at(10, 12, func() { send(10, 15, PrioNormal, 12, data[:6], false) })
	at(10, 14, func() { hosts[10].uplink.SetDown(false) })
	at(10, 15, func() { send(10, 15, PrioNormal, 18, data[:6], true) })
	// Faults on the uplink: every packet draws its own fate.
	topo.Net.InjectFaults(hosts[11].id, hosts[11].uplink.peer.ID(), FaultConfig{
		Seed: 3, DuplicateRate: 0.2, ReorderRate: 0.2, CorruptRate: 0.1, GoodToBad: 0.1, BadToGood: 0.5, LossBad: 0.5,
	})
	at(11, 0, func() { send(11, 6, PrioNormal, 0, data[:24], false) })
	// Past the NIC queue's capacity: the tail is dropped at the host.
	at(12, 0, func() { send(12, 7, PrioNormal, 0, oversized, false) })

	var trace strings.Builder
	ports := func() {
		for _, h := range hosts {
			fmt.Fprintf(&trace, " %d:%v/%d", h.id, h.uplink.stats(), h.uplink.Backlog())
		}
		for _, sw := range topo.Switches() {
			for _, p := range sw.Ports() {
				fmt.Fprintf(&trace, " %d>%d:%v/%d", p.owner, p.peer.ID(), p.stats(), p.Backlog())
			}
		}
	}
	for deadline, n := Time(0), 0; pending() > 0; n++ {
		if n > 10000 {
			t.Fatal("the script did not drain")
		}
		deadline += 3 * Microsecond
		if deadline > 400*Microsecond {
			deadline += 2 * Millisecond
		}
		runUntil(deadline)
		fmt.Fprintf(&trace, "slice %d pending=%d audit=%v", deadline, pending(), topo.Net.Audit())
		ports()
		trace.WriteString("\n")
	}
	for i := range logs {
		fmt.Fprintf(&trace, "host %d\n%s", i, logs[i].String())
	}
	if err := obs.WriteJSONL(&trace, snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := topo.Net.Audit(); err != nil {
		t.Fatal(err)
	}
	// The script reaches every case it names.
	trimmed := 0
	for _, sw := range topo.Switches() {
		for _, p := range sw.Ports() {
			trimmed += p.Stats.Trimmed
		}
	}
	f := hosts[11].uplink.faults.Stats
	if trimmed == 0 || hosts[9].DownDrops != 10 || hosts[10].uplink.Stats.DownDrops != 6 ||
		hosts[12].uplink.Stats.Dropped == 0 || f.Duplicated+f.Reordered+f.Corrupted+f.BurstDropped == 0 {
		t.Fatalf("the script missed a case: %d trims, down drops %d at host 9 and %d at port 10, %d drops at host 12, faults %+v",
			trimmed, hosts[9].DownDrops, hosts[10].uplink.Stats.DownDrops, hosts[12].uplink.Stats.Dropped, f)
	}
	for _, h := range slices.Concat(handed...) {
		for j, pl := range h.outer {
			if len(pl) != len(h.headers[j]) || len(pl) > 0 && &pl[0] != &h.headers[j][0] {
				t.Fatalf("entry %d of an outer slice handed to the fabric changed", j)
			}
			if crc32.ChecksumIEEE(pl) != h.crcs[j] {
				t.Fatalf("payload %d of an outer slice handed to the fabric changed", j)
			}
		}
	}
	return trace.String()
}
