package exp

import (
	"fmt"
	"io"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

func randGrad(seed uint64, n int) []float32 {
	r := xrand.New(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64() * 0.05)
	}
	return v
}

// runBaselineDrops regenerates the §4.4 text numbers (E4): the reliable
// baseline's message completion time as random loss increases. The paper:
// tolerates 0.15–0.25% without disproportional slowdown; at 1–2% the
// round becomes 5–10× slower or times out.
func runBaselineDrops(w io.Writer, o Options) error {
	rates := []float64{0, 0.001, 0.0025, 0.005, 0.01, 0.02, 0.05}
	if o.Quick {
		rates = []float64{0, 0.0025, 0.02}
	}
	dim := 1 << 18
	if o.Quick {
		dim = 1 << 14
	}
	grad := randGrad(11+o.Seed, dim)
	var cleanTime netsim.Time
	t := NewTable("§4.4 — Reliable baseline under random loss (E4)",
		"loss_rate", "completion_ms", "slowdown", "retransmits", "status")
	for _, rate := range rates {
		sim := netsim.NewSim()
		star := netsim.NewStar(sim, 2,
			netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond},
			netsim.QueueConfig{
				CapacityBytes: 1 << 20, Mode: netsim.DropTail,
				LossRate: rate, LossSeed: 99 + o.Seed,
			})
		a, err := transport.New(star.Hosts[0])
		if err != nil {
			return err
		}
		_, err = transport.New(star.Hosts[1], transport.WithReceiver(transport.ReceiverFunc(func(netsim.NodeID, []byte) {})))
		if err != nil {
			return err
		}

		enc, err := core.NewEncoderWith(core.WithConfig(core.Config{Params: quant.Params{Scheme: quant.Sign}}))
		if err != nil {
			return err
		}
		msg, err := enc.Encode(1, 1, grad)
		if err != nil {
			return err
		}
		payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
		var done netsim.Time
		failed := false
		a.SendReliable(1, 1, payloads,
			func(at netsim.Time) { done = at },
			func(error) { failed = true })
		sim.RunUntil(60 * netsim.Second)

		status := "ok"
		slowdown := "-"
		switch {
		case failed:
			status = "timeout"
		case done == 0:
			status = "stalled"
		default:
			if cleanTime == 0 {
				cleanTime = done
			}
			slowdown = fmt.Sprintf("%.2fx", float64(done)/float64(cleanTime))
		}
		comp := "-"
		if done > 0 {
			comp = fmt.Sprintf("%.2f", float64(done)/float64(netsim.Millisecond))
		}
		t.Add(rate, comp, slowdown, a.Stats.Retransmits, status)
	}
	return emit(w, o, t)
}

// runIncast regenerates the motivation experiment (E8): N synchronized
// senders blast gradient messages at one receiver through a shallow
// switch buffer. Trimming keeps the straggler (max FCT) low; drop+RTO
// inflates it.
func runIncast(w io.Writer, o Options) error {
	fanins := []int{2, 4, 8, 16}
	if o.Quick {
		fanins = []int{2, 4}
	}
	dim := 1 << 16
	if o.Quick {
		dim = 1 << 13
	}
	t := NewTable("Incast: straggler FCT, trim vs drop (E8)",
		"senders", "mode", "max_fct_ms", "p50_fct_ms", "trimmed_pkts", "dropped_pkts", "retransmits", "completed")
	for _, n := range fanins {
		for _, mode := range []string{"drop+reliable", "trim+trimaware"} {
			qcfg := netsim.QueueConfig{
				CapacityBytes: 64 << 10, HighCapacityBytes: 512 << 10,
				Mode: netsim.DropTail,
			}
			if mode == "trim+trimaware" {
				qcfg.Mode = netsim.TrimOverflow
			}
			sim := netsim.NewSim()
			star := netsim.NewStar(sim, n+1,
				netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond},
				qcfg)
			_, err := transport.New(star.Hosts[n], transport.WithReceiver(transport.ReceiverFunc(func(netsim.NodeID, []byte) {})))
			if err != nil {
				return err
			}

			fct := netsim.NewFCTRecorder()
			completed := 0
			retrans := 0
			stacks := make([]*transport.Stack, n)
			for i := 0; i < n; i++ {
				stacks[i], err = transport.New(star.Hosts[i])
				if err != nil {
					return err
				}
				enc, err := core.NewEncoderWith(core.WithConfig(core.Config{
					Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 13, Flow: uint32(i),
				}))
				if err != nil {
					return err
				}
				msg, err := enc.Encode(1, uint32(i+1), randGrad(uint64(i)+o.Seed, dim))
				if err != nil {
					return err
				}
				id := uint64(i + 1)
				fct.FlowStarted(id, 0)
				onDone := func(at netsim.Time) {
					completed++
					fct.FlowFinished(id, at)
				}
				if qcfg.Mode == netsim.TrimOverflow {
					stacks[i].SendTrimmable(netsim.NodeID(n), uint32(i+1), msg.Meta, msg.Data, onDone, nil)
				} else {
					payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
					stacks[i].SendReliable(netsim.NodeID(n), uint32(i+1), payloads, onDone, nil)
				}
			}
			sim.RunUntil(60 * netsim.Second)
			for _, s := range stacks {
				retrans += s.Stats.Retransmits
			}
			var trims, drops int
			port := star.Tier(netsim.TierEdge)[0].Port(netsim.NodeID(n))
			if port != nil {
				trims, drops = port.Stats.Trimmed, port.Stats.Dropped
			}
			t.Add(n, mode,
				float64(fct.Max())/float64(netsim.Millisecond),
				float64(fct.Percentile(0.5))/float64(netsim.Millisecond),
				trims, drops, retrans,
				fmt.Sprintf("%d/%d", completed, n))
		}
	}
	return emit(w, o, t)
}

// runMultiLevel regenerates §5.1 (E7): multi-level trimming. Part one
// compares head widths P at full trim (codec NMSE); part two runs the
// closed loop with different switch trim targets and reports the decoded
// gradient error each target yields under incast.
func runMultiLevel(w io.Writer, o Options) error {
	// Part 1: accuracy of P-bit heads when every tail is trimmed.
	n := 1 << 13
	if o.Quick {
		n = 1 << 11
	}
	row := randGrad(21+o.Seed, n)
	t := NewTable("§5.1 — Multi-level heads: fully-trimmed NMSE by P (E7a)",
		"codec", "P", "trimmed_size_frac", "nmse")
	codecs := []quant.Params{
		{Scheme: quant.RHT, P: 1},
		{Scheme: quant.RHTLinear, P: 2},
		{Scheme: quant.RHTLinear, P: 4},
		{Scheme: quant.RHTLinear, P: 8},
		{Scheme: quant.Eden, P: 2},
		{Scheme: quant.Eden, P: 4},
	}
	for _, p := range codecs {
		c := quant.MustNew(p)
		enc, err := c.Encode(row, 5)
		if err != nil {
			return err
		}
		dec, err := c.Decode(enc, nil, quant.AllTrimmed(n))
		if err != nil {
			return err
		}
		frac := float64(enc.P) / float64(enc.P+enc.Q)
		t.Add(c.Name(), enc.P, frac, vecmath.NMSE(row, dec))
	}
	if err := emit(w, o, t); err != nil {
		return err
	}

	// Part 2: closed loop — a congested trimming switch with different
	// trim targets. Bigger targets keep more tail bytes per trimmed
	// packet (lower error) but drain the queue more slowly (more packets
	// trimmed / dropped).
	dim := 1 << 15
	if o.Quick {
		dim = 1 << 13
	}
	t2 := NewTable("§5.1 — Switch trim target under incast (E7b)",
		"trim_target_bytes", "trimmed_pkts", "dropped_pkts", "mean_nmse", "max_fct_ms")
	for _, target := range []int{0, 400, 800} {
		sim := netsim.NewSim()
		const nSend = 4
		star := netsim.NewStar(sim, nSend+1,
			netsim.LinkConfig{Bandwidth: netsim.Gbps(5), Delay: 5 * netsim.Microsecond},
			netsim.QueueConfig{
				CapacityBytes: 48 << 10, HighCapacityBytes: 1 << 20,
				Mode: netsim.TrimOverflow, TrimTarget: target,
			})
		rxStack, err := transport.New(star.Hosts[nSend])
		if err != nil {
			return err
		}
		decs := map[netsim.NodeID]*core.Decoder{}
		coreCfg := core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 12}
		rxStack.Receiver = transport.ReceiverFunc(func(src netsim.NodeID, pl []byte) {
			if d := decs[src]; d != nil {
				//trimlint:allow swallowed-error rejections are counted in the decoder's Stats; this run reports NMSE only
				_ = d.Handle(pl)
			}
		})
		fct := netsim.NewFCTRecorder()
		grads := make([][]float32, nSend)
		for i := 0; i < nSend; i++ {
			grads[i] = randGrad(uint64(40+i)+o.Seed, dim)
			s, err := transport.New(star.Hosts[i])
			if err != nil {
				return err
			}
			enc, err := core.NewEncoderWith(core.WithConfig(coreCfg))
			if err != nil {
				return err
			}
			msg, err := enc.Encode(1, uint32(i+1), grads[i])
			if err != nil {
				return err
			}
			d, err := core.NewDecoderWith(uint32(i+1), core.WithConfig(coreCfg))
			if err != nil {
				return err
			}
			decs[netsim.NodeID(i)] = d
			id := uint64(i + 1)
			fct.FlowStarted(id, 0)
			s.SendTrimmable(netsim.NodeID(nSend), uint32(i+1), msg.Meta, msg.Data,
				func(at netsim.Time) { fct.FlowFinished(id, at) }, nil)
		}
		sim.RunUntil(60 * netsim.Second)
		var meanNMSE float64
		for i := 0; i < nSend; i++ {
			out, _, err := decs[netsim.NodeID(i)].Reconstruct(dim)
			if err != nil {
				return err
			}
			meanNMSE += vecmath.NMSE(grads[i], out) / nSend
		}
		port := star.Tier(netsim.TierEdge)[0].Port(netsim.NodeID(nSend))
		t2.Add(target, port.Stats.Trimmed, port.Stats.Dropped, meanNMSE,
			float64(fct.Max())/float64(netsim.Millisecond))
	}
	return emit(w, o, t2)
}

func init() {
	register(Runner{"baseline-drops", "reliable baseline vs random loss, §4.4 (E4)", runBaselineDrops})
	register(Runner{"incast", "straggler FCT: trim vs drop under incast (E8)", runIncast})
	register(Runner{"multilevel", "multi-level trimming: P sweep + switch targets, §5.1 (E7)", runMultiLevel})
}
