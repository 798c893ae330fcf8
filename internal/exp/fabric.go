package exp

import (
	"fmt"
	"io"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
	"trimgrad/internal/vecmath"
)

// sweepHosts is the host count every fabric in the sweep is sized for:
// a k=4 fat tree's natural 16, matched by the star and the 4×4
// leaf–spine so rows compare the fabric, not the scale.
const sweepHosts = 16

// buildSweepFabric constructs one sweep topology over sweepHosts hosts.
// The leaf–spine runs 4:1 oversubscribed — the configuration where
// multi-tier queueing actually differs from the single-switch star.
func buildSweepFabric(sim *netsim.Sim, kind string, q netsim.QueueConfig, seed uint64) (*netsim.Topology, error) {
	link := netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond}
	switch kind {
	case "star":
		return netsim.NewStar(sim, sweepHosts, link, q), nil
	case "fattree":
		return netsim.NewFatTree(sim, netsim.FatTreeConfig{
			K: 4, HostLink: link, Queue: q, ECMPSeed: seed,
		})
	case "leafspine":
		return netsim.NewLeafSpine(sim, netsim.LeafSpineConfig{
			Leaves: 4, Spines: 2, HostsPerLeaf: 4,
			HostLink: link, Oversub: 4, Queue: q, ECMPSeed: seed,
		})
	}
	return nil, fmt.Errorf("unknown sweep topology %q", kind)
}

// runFabricSweep is the cross-topology congestion sweep (E13): the same
// gradient incast under the same mice/elephant background load, run over
// star, fat-tree, and oversubscribed leaf–spine fabrics while the buffer
// size dials trim pressure. Trimming should hold the straggler FCT and
// decode error roughly flat across fabrics while drop+RTO degrades with
// depth — the paper's claim that just-in-time compression composes with
// real data-center topologies, not just a single bottleneck queue.
func runFabricSweep(w io.Writer, o Options) error {
	topologies := []string{"star", "fattree", "leafspine"}
	buffers := []int{16 << 10, 48 << 10, 256 << 10}
	dim := 1 << 14
	if o.Quick {
		topologies = []string{"star", "fattree"}
		buffers = []int{48 << 10}
		dim = 1 << 12
	}
	const fan = 8

	t := NewTable("Fabric sweep: topology x buffer x mode under background load (E13)",
		"topology", "buffer_kb", "mode", "completed", "max_fct_ms",
		"trimmed_pkts", "dropped_pkts", "retransmits", "mean_nmse")
	for _, kind := range topologies {
		for _, buffer := range buffers {
			for _, trimming := range []bool{false, true} {
				row, err := runFabricSweepCell(kind, buffer, trimming, dim, fan, o)
				if err != nil {
					return fmt.Errorf("exp: fabricsweep %s/%d: %w", kind, buffer, err)
				}
				t.Add(row...)
			}
		}
	}
	return emit(w, o, t)
}

// runFabricSweepCell runs one cell: fan senders incast their encoded
// gradients at the last host while every host contributes background
// mice (and every fourth an elephant stream), then reports completion,
// straggler FCT, fabric-wide trim/drop counts, and mean decode NMSE.
func runFabricSweepCell(kind string, buffer int, trimming bool, dim, fan int, o Options) ([]any, error) {
	q := netsim.QueueConfig{
		CapacityBytes:     buffer,
		HighCapacityBytes: 1 << 20,
		Mode:              netsim.DropTail,
	}
	mode := "drop+reliable"
	if trimming {
		q.Mode = netsim.TrimOverflow
		mode = "trim+trimaware"
	}
	sim := netsim.NewSim()
	topo, err := buildSweepFabric(sim, kind, q, 31+o.Seed)
	if err != nil {
		return nil, err
	}
	n := len(topo.Hosts)
	sink := n - 1
	sinkID := topo.Hosts[sink].ID()

	coreCfg := core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 12}
	decs := map[netsim.NodeID]*core.Decoder{}
	rx, err := transport.New(topo.Hosts[sink])
	if err != nil {
		return nil, err
	}
	rx.Receiver = transport.ReceiverFunc(func(src netsim.NodeID, pl []byte) {
		if d := decs[src]; d != nil {
			//trimlint:allow swallowed-error rejections are counted in the decoder's Stats; this sweep reports NMSE only
			_ = d.Handle(pl)
		}
	})

	fct := netsim.NewFCTRecorder()
	completed, retrans := 0, 0
	grads := make([][]float32, fan)
	stacks := make([]*transport.Stack, fan)
	for i := 0; i < fan; i++ {
		grads[i] = randGrad(uint64(80+i)+o.Seed, dim)
		s, err := transport.New(topo.Hosts[i])
		if err != nil {
			return nil, err
		}
		stacks[i] = s
		enc, err := core.NewEncoderWith(core.WithConfig(coreCfg))
		if err != nil {
			return nil, err
		}
		msg, err := enc.Encode(1, uint32(i+1), grads[i])
		if err != nil {
			return nil, err
		}
		d, err := core.NewDecoderWith(uint32(i+1), core.WithConfig(coreCfg))
		if err != nil {
			return nil, err
		}
		decs[topo.Hosts[i].ID()] = d
		id := uint64(i + 1)
		fct.FlowStarted(id, 0)
		onDone := func(at netsim.Time) { completed++; fct.FlowFinished(id, at) }
		if trimming {
			s.SendTrimmable(sinkID, uint32(i+1), msg.Meta, msg.Data, onDone, nil)
		} else {
			payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
			s.SendReliable(sinkID, uint32(i+1), payloads, onDone, nil)
		}
	}
	bg := netsim.BackgroundMix(n, 2e5, 5e4, 41+o.Seed).StartBackground(topo, 43+o.Seed)
	// Run in slices and stop at completion: the open-loop background never
	// drains the event queue, so a fixed long horizon would simulate
	// seconds of pure background after the last gradient lands.
	const slice = 10 * netsim.Millisecond
	for now := netsim.Time(0); completed < fan && now < 10*netsim.Second; now += slice {
		sim.RunUntil(now + slice)
	}
	for _, ct := range bg {
		ct.Stop()
	}

	for _, s := range stacks {
		retrans += s.Stats.Retransmits
	}
	trims, drops := 0, 0
	for _, sw := range topo.Switches() {
		for _, p := range sw.Ports() {
			trims += p.Stats.Trimmed
			drops += p.Stats.Dropped
		}
	}
	var meanNMSE float64
	decoded := 0
	for i := 0; i < fan; i++ {
		d := decs[topo.Hosts[i].ID()]
		out, _, err := d.Reconstruct(dim)
		if err != nil {
			continue
		}
		meanNMSE += vecmath.NMSE(grads[i], out)
		decoded++
	}
	nmse := "-"
	if decoded > 0 {
		nmse = fmt.Sprintf("%.2g", meanNMSE/float64(decoded))
	}
	return []any{
		kind, buffer >> 10, mode,
		fmt.Sprintf("%d/%d", completed, fan),
		float64(fct.Max()) / float64(netsim.Millisecond),
		trims, drops, retrans, nmse,
	}, nil
}

func init() {
	register(Runner{"fabricsweep", "cross-topology sweep: gradient incast under background load, star vs fat-tree vs leaf-spine (E13)", runFabricSweep})
}
