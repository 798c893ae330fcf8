package netsim_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

var updateDeliveries = flag.Bool("update-deliveries", false,
	"re-record testdata/delivery_digests.txt (only right when a simulated outcome was meant to move)")

// The delivery log pins what a fabric run observably does, record by
// record: every packet a host receives, as (time, dst, src, flow, seq,
// trimmed, payload length), the clock after every RunUntil slice, and the
// merged telemetry export (every port, fault and transport counter) at the
// end, without its zero-valued points, so adding or deleting an
// instrument that never counts moves nothing. Each cell's log hashes into one line of
// testdata/delivery_digests.txt; a changed line means a simulated outcome
// moved. Event counts are deliberately left out: how many events the
// engine needs to produce these outcomes is its own business.

// deliveryLog collects one log per host, so sharded runs, whose hosts
// receive on different goroutines, append without sharing a buffer; the
// logs are joined in host order.
type deliveryLog struct {
	hosts []strings.Builder
	tail  strings.Builder
}

// record wraps h's handler (installed by the transport, or none) so every
// delivery is logged before it is handled.
func (l *deliveryLog) record(i int, h *netsim.Host) {
	next := h.Handler
	h.Handler = func(p *netsim.Packet) {
		fmt.Fprintf(&l.hosts[i], "%d %d<-%d flow=%d seq=%d trimmed=%v len=%d\n",
			h.Sim().Now(), h.ID(), p.Src, p.FlowID, p.Seq, isCut(p.Payload), len(p.Payload))
		if next != nil {
			next(p)
		}
	}
}

// isCut reports whether a switch cut payload, told by its length
// (wire.Header.IsCut).
func isCut(payload []byte) bool {
	h, err := wire.ParseHeader(payload)
	return err == nil && h.IsCut(len(payload))
}

func (l *deliveryLog) digest() string {
	var b bytes.Buffer
	for i := range l.hosts {
		fmt.Fprintf(&b, "host %d\n%s", i, l.hosts[i].String())
	}
	b.WriteString(l.tail.String())
	return fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
}

// fabricCell describes one transport run over a k=4 fat tree.
type fabricCell struct {
	queue     netsim.QueueConfig
	cfg       transport.Config
	reliable  bool
	flows     netsim.Workload
	dim       int
	shards    int // 0: the plain Sim
	slice     netsim.Time
	bound     netsim.Time
	perturb   func(t *netsim.Topology) // faults and flaps, after partitioning
	minStalls int                      // transport timeouts the cell must provoke
}

func runFabricCell(t *testing.T, c fabricCell) string {
	t.Helper()
	reg := obs.New()
	sim := netsim.NewSim()
	topo, err := netsim.FabricSpec{
		Kind:     "fattree",
		K:        4,
		Link:     netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 2 * netsim.Microsecond},
		Queue:    c.queue,
		ECMPSeed: 5,
	}.Build(sim, netsim.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	runUntil, now, snapshot := sim.RunUntil, sim.Now, reg.Snapshot
	if c.shards > 0 {
		eng, err := netsim.ShardTopology(topo, c.shards)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		runUntil, now, snapshot = eng.RunUntil, eng.Now, eng.Snapshot
	}
	if c.perturb != nil {
		c.perturb(topo)
	}
	log := &deliveryLog{hosts: make([]strings.Builder, len(topo.Hosts))}
	stacks := make([]*transport.Stack, len(topo.Hosts))
	for i, h := range topo.Hosts {
		s, err := transport.New(h, transport.WithConfig(c.cfg))
		if err != nil {
			t.Fatal(err)
		}
		stacks[i] = s
		log.record(i, h)
	}
	flows := c.flows.GradientFlows()
	settled := make([]bool, len(flows))
	for fi, f := range flows {
		enc, err := core.NewEncoderWith(core.WithConfig(core.Config{
			Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 10, Flow: uint32(fi + 1),
		}))
		if err != nil {
			t.Fatal(err)
		}
		grad := make([]float32, c.dim)
		r := xrand.New(uint64(100 + fi))
		for i := range grad {
			grad[i] = float32(r.NormFloat64() * 0.05)
		}
		msg, err := enc.Encode(1, uint32(fi+1), grad)
		if err != nil {
			t.Fatal(err)
		}
		done := func(netsim.Time) { settled[fi] = true }
		fail := func(error) { settled[fi] = true }
		dst := topo.Hosts[f.Dst].ID()
		if c.reliable {
			payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
			stacks[f.Src].SendReliable(dst, msg.ID, payloads, done, fail)
		} else {
			stacks[f.Src].SendTrimmable(dst, msg.ID, msg.Meta, msg.Data, done, fail)
		}
	}
	all := func() bool {
		for _, ok := range settled {
			if !ok {
				return false
			}
		}
		return true
	}
	for deadline := c.slice; !all(); deadline += c.slice {
		if deadline > c.bound {
			t.Fatalf("flows still open at %v", c.bound)
		}
		runUntil(deadline)
		if err := topo.Net.Audit(); err != nil {
			t.Fatalf("after the slice to %v: %v", deadline, err)
		}
		fmt.Fprintf(&log.tail, "slice now=%d\n", now())
	}
	stalls := 0
	for _, s := range stacks {
		stalls += s.Stats.Timeouts
	}
	if stalls < c.minStalls {
		t.Fatalf("%d transport timeouts, the cell needs at least %d", stalls, c.minStalls)
	}
	if err := obs.WriteJSONL(&log.tail, snapshot().NonZero()); err != nil {
		t.Fatal(err)
	}
	return log.digest()
}

// rootSendCell drives a 3-host star from the root context alone: raw
// packets sent between RunUntil slices whose deadlines land one ns before,
// exactly on, and one ns after a serialization end, as well as anywhere
// else, so a send meets a port whose packet is still on the wire, one
// whose wire just emptied, and an idle one. After every slice it audits
// the fabric and logs the clock and each port's enqueued, transmitted and
// backlog counts.
func rootSendCell(t *testing.T) string {
	t.Helper()
	reg := obs.New()
	sim := netsim.NewSim()
	link := netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: netsim.Microsecond}
	star := netsim.NewStar(sim, 3, link, netsim.QueueConfig{CapacityBytes: 16 << 10}, netsim.WithRegistry(reg))
	log := &deliveryLog{hosts: make([]strings.Builder, len(star.Hosts))}
	var ports []*netsim.Port
	for i, h := range star.Hosts {
		log.record(i, h)
		ports = append(ports, h.Uplink())
	}
	for _, sw := range star.Switches() {
		ports = append(ports, sw.Ports()...)
	}
	sizes := []int{64, 1500, 9000}
	rng := xrand.New(41)
	var lastEnd netsim.Time // serialization end of the last root send's first hop
	seq := uint64(0)
	for slice := 0; slice < 300; slice++ {
		deadline := sim.Now() + 1
		switch rng.Intn(5) {
		case 0:
			deadline = max(deadline, lastEnd-1)
		case 1:
			deadline = max(deadline, lastEnd)
		case 2:
			deadline = max(deadline, lastEnd+1)
		case 3:
			deadline += netsim.Time(rng.Intn(8000))
		}
		sim.RunUntil(deadline)
		if err := star.Net.Audit(); err != nil {
			t.Fatalf("slice %d: %v", slice, err)
		}
		fmt.Fprintf(&log.tail, "slice %d now=%d", slice, sim.Now())
		for _, p := range ports {
			fmt.Fprintf(&log.tail, " %d/%d/%d", p.Stats.Enqueued, p.Stats.Transmitted, p.Backlog())
		}
		log.tail.WriteString("\n")
		for n := rng.Intn(3); n > 0; n-- {
			src := rng.Intn(len(star.Hosts))
			pkt := sim.NewPacket()
			pkt.Dst = star.Hosts[(src+1+rng.Intn(len(star.Hosts)-1))%len(star.Hosts)].ID()
			size := sizes[rng.Intn(len(sizes))]
			pkt.Size = size
			pkt.FlowID = uint64(src)
			pkt.Seq = seq
			seq++
			star.Hosts[src].Send(pkt) // the fabric owns pkt from here on
			lastEnd = sim.Now() + netsim.Time(int64(size)*8*int64(netsim.Second)/link.Bandwidth)
		}
	}
	sim.Run()
	if err := star.Net.Audit(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&log.tail, "end now=%d\n", sim.Now())
	if err := obs.WriteJSONL(&log.tail, reg.Snapshot().NonZero()); err != nil {
		t.Fatal(err)
	}
	return log.digest()
}

// TestDeliveryLogDigests replays each cell and compares its digest with
// testdata/delivery_digests.txt. The cells: a trimming incast, a drop-tail
// incast whose senders time out over and over, a trimming permutation on
// the plain Sim and at 1, 2 and 4 shards (which must all agree), a
// reliable permutation through a flapping link and a reordering one, and
// the root-context sends above.
func TestDeliveryLogDigests(t *testing.T) {
	trim := netsim.QueueConfig{CapacityBytes: 24 << 10, HighCapacityBytes: 256 << 10, Mode: netsim.TrimOverflow}
	drop := netsim.QueueConfig{CapacityBytes: 12 << 10, Mode: netsim.DropTail}
	fast := transport.Config{RTO: 40 * netsim.Microsecond, MaxRetries: 1000}
	incast := netsim.Incast(16, 15)
	permute := netsim.Permutation(16, 3)
	var out bytes.Buffer
	add := func(name, digest string) { fmt.Fprintf(&out, "%s %s\n", name, digest) }

	add("trim-incast", runFabricCell(t, fabricCell{
		queue: trim, cfg: fast, flows: incast, dim: 1 << 13,
		slice: 50 * netsim.Microsecond, bound: netsim.Second,
	}))
	add("drop-incast-rto", runFabricCell(t, fabricCell{
		queue: drop, cfg: fast, reliable: true, flows: incast, dim: 1 << 14,
		slice: 50 * netsim.Microsecond, bound: netsim.Second, minStalls: 100,
	}))
	var permuteDigests []string
	for _, shards := range []int{0, 1, 2, 4} {
		d := runFabricCell(t, fabricCell{
			queue: trim, cfg: fast, flows: permute, dim: 1 << 13, shards: shards,
			slice: 30 * netsim.Microsecond, bound: netsim.Second,
		})
		add(fmt.Sprintf("permute-trim shards=%d", shards), d)
		permuteDigests = append(permuteDigests, d)
	}
	for _, d := range permuteDigests[1:] {
		if d != permuteDigests[0] {
			t.Errorf("permutation digests differ across shard counts: %v", permuteDigests)
			break
		}
	}
	add("flap-reorder", runFabricCell(t, fabricCell{
		queue: drop, cfg: fast, reliable: true, flows: permute, dim: 1 << 13, shards: 2,
		slice: 40 * netsim.Microsecond, bound: netsim.Second, minStalls: 1,
		perturb: func(topo *netsim.Topology) {
			edge, agg := topo.Tier(netsim.TierEdge), topo.Tier(netsim.TierAgg)
			topo.Net.FlapLink(edge[0].ID(), agg[0].ID(), 20*netsim.Microsecond, 150*netsim.Microsecond)
			topo.Net.InjectFaults(edge[3].ID(), agg[2].ID(), netsim.FaultConfig{
				Seed: 9, ReorderRate: 0.2, ReorderDelay: 3 * netsim.Microsecond,
			})
		},
	}))
	add("root-sends", rootSendCell(t))

	path := filepath.Join("testdata", "delivery_digests.txt")
	if *updateDeliveries {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("delivery digests moved:\n got:\n%s want:\n%s", out.Bytes(), want)
	}
}
