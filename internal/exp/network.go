package exp

import (
	"fmt"
	"io"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/scenario"
	"trimgrad/internal/vecmath"
)

// link10G is the host link of every simulated fabric below.
var link10G = netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond}

func ms(t netsim.Time) float64 { return float64(t) / float64(netsim.Millisecond) }

// runBaselineDrops regenerates the §4.4 text numbers (E4): the reliable
// baseline's message completion time as random loss increases. The paper:
// tolerates 0.15–0.25% without disproportional slowdown; at 1–2% the
// round becomes 5–10× slower or times out.
func runBaselineDrops(w io.Writer, o Options) error {
	rates := []float64{0, 0.001, 0.0025, 0.005, 0.01, 0.02, 0.05}
	dim := 1 << 18
	if o.Quick {
		rates = []float64{0, 0.0025, 0.02}
		dim = 1 << 14
	}
	var cleanTime netsim.Time
	t := NewTable("§4.4 — Reliable baseline under random loss (E4)",
		"loss_rate", "completion_ms", "slowdown", "retransmits", "status")
	for _, rate := range rates {
		res, err := scenario.Run(scenario.Scenario{
			Fabric: netsim.FabricSpec{Kind: "star", N: 2, Link: link10G, Queue: netsim.QueueConfig{
				CapacityBytes: 1 << 20, Mode: netsim.DropTail,
				LossRate: rate, LossSeed: 99 + o.Seed,
			}},
			Workload: "incast", Dim: dim, GradSeed: 11 + o.Seed,
			Codec:    core.Config{Params: quant.Params{Scheme: quant.Sign}},
			Reliable: true, Horizon: 60 * netsim.Second,
		}, nil)
		if err != nil {
			return err
		}
		f := res.Flows[0]
		status, slowdown, comp := "ok", "-", "-"
		switch {
		case f.Err != nil:
			status = "timeout"
		case f.Done == 0:
			status = "stalled"
		default:
			if cleanTime == 0 {
				cleanTime = f.Done
			}
			slowdown = fmt.Sprintf("%.2fx", float64(f.Done)/float64(cleanTime))
			comp = fmt.Sprintf("%.2f", ms(f.Done))
		}
		t.Add(rate, comp, slowdown, res.Retransmits(), status)
	}
	return emit(w, o, t)
}

// runIncast regenerates the motivation experiment (E8): N synchronized
// senders blast gradient messages at one receiver through a shallow
// switch buffer. Trimming keeps the straggler (max FCT) low; drop+RTO
// inflates it.
func runIncast(w io.Writer, o Options) error {
	fanins := []int{2, 4, 8, 16}
	dim := 1 << 16
	if o.Quick {
		fanins = []int{2, 4}
		dim = 1 << 13
	}
	t := NewTable("Incast: straggler FCT, trim vs drop (E8)",
		"senders", "mode", "max_fct_ms", "p50_fct_ms", "trimmed_pkts", "dropped_pkts", "retransmits", "completed")
	for _, n := range fanins {
		for _, trimming := range []bool{false, true} {
			q, mode := queueFor(trimming, 64<<10, 512<<10)
			res, err := scenario.Run(scenario.Scenario{
				Fabric:   netsim.FabricSpec{Kind: "star", N: n + 1, Link: link10G, Queue: q},
				Workload: "incast", Dim: dim, GradSeed: o.Seed,
				Codec:    core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 13},
				Reliable: !trimming, Horizon: 60 * netsim.Second,
			}, nil)
			if err != nil {
				return err
			}
			port := sinkPort(res)
			t.Add(n, mode, ms(res.FCT.Max()), ms(res.FCT.Percentile(0.5)),
				port.Trimmed, port.Dropped, res.Retransmits(),
				fmt.Sprintf("%d/%d", res.FCT.Count(), n))
		}
	}
	return emit(w, o, t)
}

// queueFor returns the switch queue and the mode label of one arm of a
// trim-vs-drop comparison.
func queueFor(trimming bool, capacity, high int) (netsim.QueueConfig, string) {
	q := netsim.QueueConfig{CapacityBytes: capacity, HighCapacityBytes: high, Mode: netsim.DropTail}
	if trimming {
		q.Mode = netsim.TrimOverflow
		return q, "trim+trimaware"
	}
	return q, "drop+reliable"
}

// sinkPort returns the counters of a star's switch port toward the incast
// target (the last host) — the one hot queue of a single-switch incast.
func sinkPort(res *scenario.Result) netsim.PortStats {
	sink := res.Topo.Hosts[len(res.Topo.Hosts)-1]
	return res.Topo.Tier(netsim.TierEdge)[0].Port(sink.ID()).Stats
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
	row := scenario.Gradient(21+o.Seed, n)
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
		res, err := scenario.Run(scenario.Scenario{
			Fabric: netsim.FabricSpec{Kind: "star", N: 5,
				Link: netsim.LinkConfig{Bandwidth: netsim.Gbps(5), Delay: 5 * netsim.Microsecond},
				Queue: netsim.QueueConfig{
					CapacityBytes: 48 << 10, HighCapacityBytes: 1 << 20,
					Mode: netsim.TrimOverflow, TrimTarget: target,
				}},
			Workload: "incast", Dim: dim, GradSeed: 40 + o.Seed,
			Codec:  core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 12},
			Decode: true, Horizon: 60 * netsim.Second,
		}, nil)
		if err != nil {
			return err
		}
		nmse, decoded := meanNMSE(res)
		if decoded < len(res.Flows) {
			return fmt.Errorf("exp: multilevel: %d of %d gradients could not be reconstructed", len(res.Flows)-decoded, len(res.Flows))
		}
		port := sinkPort(res)
		t2.Add(target, port.Trimmed, port.Dropped, nmse, ms(res.FCT.Max()))
	}
	return emit(w, o, t2)
}

// meanNMSE averages the decode error over the flows whose gradient could
// be reconstructed, and says how many that was.
func meanNMSE(res *scenario.Result) (mean float64, decoded int) {
	for _, f := range res.Flows {
		if f.Decoded {
			mean += f.NMSE
			decoded++
		}
	}
	if decoded > 0 {
		mean /= float64(decoded)
	}
	return mean, decoded
}

func init() {
	register(Runner{"baseline-drops", "reliable baseline vs random loss, §4.4 (E4)", runBaselineDrops})
	register(Runner{"incast", "straggler FCT: trim vs drop under incast (E8)", runIncast})
	register(Runner{"multilevel", "multi-level trimming: P sweep + switch targets, §5.1 (E7)", runMultiLevel})
}
