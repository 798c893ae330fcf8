package exp

import (
	"bytes"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/scenario"
	"trimgrad/internal/transport"
)

var update = flag.Bool("update", false, "re-record the golden metric exports under testdata/")

// goldenRun is what one golden scenario leaves behind: the snapshot it
// exports and every stats struct that fed it, so the export can be pinned
// byte-for-byte and the structs checked against it field by field.
type goldenRun struct {
	snap    obs.Snapshot
	topos   []*netsim.Topology
	stacks  []*transport.Stack
	decoded core.Stats // summed over every decoder of the run
}

var goldenCodec = core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 10}

// incast encodes one gradient per sender, ships it to the last host of
// topo over fresh transport stacks, and returns a closure that
// reconstructs every message once the simulation has run.
func (g *goldenRun) incast(t *testing.T, topo *netsim.Topology, reg *obs.Registry, trimmable bool, fct *netsim.FCTRecorder) (finish func()) {
	t.Helper()
	const dim = 1 << 13
	sink := len(topo.Hosts) - 1
	decs := map[netsim.NodeID]*core.Decoder{}
	for i, h := range topo.Hosts {
		s, err := transport.New(h, transport.WithConfig(transport.Config{RTO: 200 * netsim.Microsecond, MaxRetries: 30}))
		if err != nil {
			t.Fatal(err)
		}
		g.stacks = append(g.stacks, s)
		if i == sink {
			s.Receiver = transport.ReceiverFunc(func(src netsim.NodeID, pl []byte) {
				if d := decs[src]; d != nil {
					_ = d.Handle(pl) // rejections are counted and exported
				}
			})
			continue
		}
		msgID := uint32(i + 1)
		cfg := goldenCodec
		cfg.Flow = uint32(i)
		enc, err := core.NewEncoderWith(core.WithConfig(cfg), core.WithRegistry(reg))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := enc.Encode(3, msgID, scenario.Gradient(uint64(90+i), dim))
		if err != nil {
			t.Fatal(err)
		}
		decs[h.ID()], err = core.NewDecoderWith(msgID, core.WithConfig(goldenCodec), core.WithRegistry(reg))
		if err != nil {
			t.Fatal(err)
		}
		id := uint64(msgID)
		fct.FlowStarted(id, 0)
		onDone := func(at netsim.Time) { fct.FlowFinished(id, at) }
		if trimmable {
			s.SendTrimmable(topo.Hosts[sink].ID(), msgID, msg.Meta, msg.Data, onDone, nil)
		} else {
			s.SendReliable(topo.Hosts[sink].ID(), msgID, append(append([][]byte{}, msg.Meta...), msg.Data...), onDone, nil)
		}
	}
	g.topos = append(g.topos, topo)
	return func() {
		for _, h := range topo.Hosts[:sink] {
			_, st, err := decs[h.ID()].Reconstruct(dim)
			if err != nil {
				t.Fatal(err)
			}
			g.decoded.Accumulate(st)
		}
	}
}

// goldenStar runs a 4-to-1 star incast twice into one registry — drop-tail
// under the reliable transport, then trimming under the trim-aware one —
// through a corrupt+duplicate+reorder fault mix, a link flap, a host pause
// and one unroutable packet, so every counter family has something to say.
func goldenStar(t *testing.T) *goldenRun {
	t.Helper()
	reg := obs.New()
	g := &goldenRun{}
	for _, trimmable := range []bool{false, true} {
		mode := netsim.DropTail
		if trimmable {
			mode = netsim.TrimOverflow
		}
		sim := netsim.NewSim()
		star := netsim.NewStar(sim, 5,
			netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond},
			netsim.QueueConfig{CapacityBytes: 24 << 10, HighCapacityBytes: 64 << 10, Mode: mode, ECNThresholdBytes: 8 << 10},
			netsim.WithRegistry(reg))
		faults := netsim.FaultConfig{
			Seed: 29, CorruptRate: 0.05, CorruptBits: 2, DuplicateRate: 0.1,
			ReorderRate: 0.1, ReorderDelay: 20 * netsim.Microsecond,
		}
		star.Net.InjectFaults(0, netsim.SwitchIDBase, faults)
		star.Net.InjectFaults(netsim.SwitchIDBase, 4, faults)
		star.Net.FlapLink(1, netsim.SwitchIDBase, 100*netsim.Microsecond, 300*netsim.Microsecond)
		sim.At(50*netsim.Microsecond, func() { star.Hosts[2].Pause(200 * netsim.Microsecond) })
		fct := netsim.NewFCTRecorder()
		fct.Obs = reg
		finish := g.incast(t, star, reg, trimmable, fct)
		miss := sim.NewPacket() // no route: a switch route miss
		miss.Dst, miss.Size = 99, 100
		star.Hosts[3].Send(miss)
		sim.RunUntil(30 * netsim.Second)
		finish()
	}
	g.snap = reg.Snapshot()
	return g
}

// goldenFatTree runs a 15-to-1 trim incast on a k=4 fat tree partitioned
// into the given number of shards.
func goldenFatTree(t *testing.T, shards int) *goldenRun {
	t.Helper()
	reg := obs.New()
	g := &goldenRun{}
	topo, err := netsim.FabricSpec{
		Kind:     "fattree",
		K:        4,
		Link:     netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond},
		Queue:    netsim.QueueConfig{CapacityBytes: 16 << 10, HighCapacityBytes: 128 << 10, Mode: netsim.TrimOverflow},
		ECMPSeed: 7,
	}.Build(netsim.NewSim(), netsim.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := netsim.ShardTopology(topo, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	fct := netsim.NewFCTRecorder()
	fct.Obs = reg
	finish := g.incast(t, topo, reg, true, fct)
	eng.RunUntil(30 * netsim.Second)
	finish()
	g.snap = eng.Snapshot()
	return g
}

// checkGolden compares the run's JSONL export with testdata/<name>
// byte-for-byte (or re-records it under -update).
func checkGolden(t *testing.T, name string, g *goldenRun) {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, g.snap); err != nil {
		t.Fatal(err)
	}
	checkFile(t, name, buf.Bytes())
}

// TestGoldenMetricsExport pins the exported bytes of two seeded runs: the
// names, the values and the canonical order of everything the fabric, the
// transports and the codec report. The fat tree must export the same file
// at every shard count.
func TestGoldenMetricsExport(t *testing.T) {
	checkGolden(t, "golden_star.jsonl", goldenStar(t))
	for _, shards := range []int{1, 2} {
		checkGolden(t, "golden_fattree.jsonl", goldenFatTree(t, shards))
	}
}

// The metric name each stats-struct field is exported under, relative to
// its component's prefix. An empty name marks a field with no export.
var (
	portStatNames = map[string]string{
		"Enqueued": "enqueued_total", "Transmitted": "transmitted_total",
		"Dropped": "dropped_total", "DroppedBytes": "dropped_bytes_total",
		"Trimmed": "trimmed_total", "ECNMarked": "ecn_marked_total",
		"MaxQueueBytes": "max_queue_bytes", "DownDrops": "down_drops_total",
		"Aggregated": "aggregated_total",
	}
	faultStatNames = map[string]string{
		"Corrupted": "corrupted_total", "Duplicated": "duplicated_total",
		"Reordered": "reordered_total", "BurstDropped": "burst_dropped_total",
	}
	stackStatNames = map[string]string{
		"DataSent": "data_sent_total", "DataDelivered": "data_delivered_total",
		"TrimmedReceived": "trimmed_received_total", "Retransmits": "retransmits_total",
		"Timeouts": "timeouts_total", "AcksSent": "acks_sent_total",
		"NacksSent": "nacks_sent_total", "Failures": "failures_total",
		"RejectedPackets": "rejected_packets_total", "DupsReceived": "dups_received_total",
	}
	decodeStatNames = map[string]string{
		"Packets": "packets_total", "TrimmedPackets": "trimmed_packets_total",
		"ExpectedPackets": "expected_packets_total", "TrimmedCoords": "coords_trimmed_total",
		"TotalCoords": "coords_total", "DroppedCoords": "coords_dropped_total",
		"BytesReceived": "bytes_total", "RejectedPackets": "rejected_total",
	}
)

// addStats folds every integer field of the stats struct into want under
// prefix + its documented name: counters ("_total") sum across components
// sharing a name, gauges keep the maximum — the obs.Merge rules.
func addStats(t *testing.T, want map[string]int64, prefix string, stats any, names map[string]string) {
	t.Helper()
	v := reflect.ValueOf(stats)
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type.Kind() != reflect.Int {
			t.Errorf("%s.%s: stats fields must be int, got %s", v.Type(), f.Name, f.Type)
			continue
		}
		name, ok := names[f.Name]
		if !ok {
			t.Errorf("%s.%s has no documented metric name", v.Type(), f.Name)
			continue
		}
		if name == "" {
			continue
		}
		n := v.Field(i).Int()
		if key := prefix + name; strings.HasSuffix(name, "_total") {
			want[key] += n
		} else if cur, seen := want[key]; !seen || n > cur {
			want[key] = n
		}
	}
}

// statsPrefixes are the metric families that have a stats struct (or, for
// switches and hosts, a single count field) behind them; every exported
// point in one of them must be accounted for.
var statsPrefixes = []string{"netsim.port.", "netsim.fault.", "netsim.switch.", "netsim.host.", "transport.h", "core.decode."}

// checkParity asserts that the stats structs and the export tell the same
// story: each integer field equals the point of its documented name, and
// no counter or gauge of a stats-backed family lacks a field. A source
// registered twice, or on two registries that Engine.Snapshot merges,
// doubles its points and fails here.
func checkParity(t *testing.T, g *goldenRun) {
	t.Helper()
	want := map[string]int64{}
	// Ports are reached through the link names the export lists; the count
	// check below catches a port the export forgot.
	ports := 0
	for _, c := range g.snap.Counters {
		rest, isPort := strings.CutPrefix(c.Name, "netsim.port.")
		link, isEnqueued := strings.CutSuffix(rest, ".enqueued_total")
		if !isPort || !isEnqueued {
			continue
		}
		var a, b int
		if _, err := fmt.Sscanf(link, "%d->%d", &a, &b); err != nil {
			t.Fatalf("port counter %q: %v", c.Name, err)
		}
		for _, topo := range g.topos {
			var p *netsim.Port
			switch n := topo.Net.Node(netsim.NodeID(a)).(type) {
			case *netsim.Switch:
				p = n.Port(netsim.NodeID(b))
			case *netsim.Host:
				p = n.Uplink()
			}
			if p == nil {
				t.Fatalf("%s names no port of this topology", c.Name)
			}
			ports++
			addStats(t, want, "netsim.port."+link+".", p.Stats, portStatNames)
			if f := p.Faults(); f != nil {
				addStats(t, want, "netsim.fault."+link+".", f.Stats, faultStatNames)
			}
		}
	}
	built := 0
	for _, topo := range g.topos {
		built += len(topo.Hosts)
		for _, h := range topo.Hosts {
			want[fmt.Sprintf("netsim.host.%d.down_drops_total", h.ID())] += int64(h.DownDrops)
		}
		for _, sw := range topo.Switches() {
			built += len(sw.Ports())
			want[fmt.Sprintf("netsim.switch.%d.route_misses_total", sw.ID())] += int64(sw.RouteMisses)
		}
	}
	if ports != built {
		t.Errorf("export lists %d ports, the topologies have %d", ports, built)
	}
	for _, s := range g.stacks {
		addStats(t, want, fmt.Sprintf("transport.h%d.", s.Host().ID()), s.Stats, stackStatNames)
	}
	addStats(t, want, "core.decode.", g.decoded, decodeStatNames)

	got := map[string]int64{}
	for _, c := range g.snap.Counters {
		got[c.Name] = c.Value
	}
	for _, p := range g.snap.Gauges {
		if !strings.HasSuffix(p.Name, ".cwnd_x1000") { // an instrument with no struct field
			got[p.Name] = p.Value
		}
	}
	for name, w := range want {
		v, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: struct field = %d but the export has no such point", name, w)
		case v != w:
			t.Errorf("%s: export %d, struct field %d", name, v, w)
		}
	}
	for name := range got {
		for _, p := range statsPrefixes {
			if _, ok := want[name]; strings.HasPrefix(name, p) && !ok {
				t.Errorf("%s is exported but no stats-struct field documents it", name)
			}
		}
	}
}

// TestStatsStructsMatchExport is the parity check over the golden runs.
func TestStatsStructsMatchExport(t *testing.T) {
	checkParity(t, goldenStar(t))
	checkParity(t, goldenFatTree(t, 2))
}
