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

// runChaos sweeps the fault-injection matrix over both transports: one
// gradient transfer per (scenario, mode) cell on a faulty link, reporting
// whether it completed byte-correct, failed cleanly, or (a bug) hung.
// This is the tabular companion to the chaos regression tests — the same
// scenarios, surfaced as numbers so recovery-cost regressions are visible,
// not just pass/fail.
func runChaos(w io.Writer, o Options) error {
	type scenario struct {
		name   string
		faults netsim.FaultConfig
		flap   bool
	}
	scenarios := []scenario{
		{name: "clean"},
		{name: "corrupt-10%", faults: netsim.FaultConfig{CorruptRate: 0.1, CorruptBits: 4}},
		{name: "corrupt-40%", faults: netsim.FaultConfig{CorruptRate: 0.4, CorruptBits: 8}},
		{name: "duplicate-50%", faults: netsim.FaultConfig{DuplicateRate: 0.5}},
		{name: "reorder-50%", faults: netsim.FaultConfig{ReorderRate: 0.5, ReorderDelay: 100 * netsim.Microsecond}},
		{name: "burst-loss", faults: netsim.FaultConfig{GoodToBad: 0.05, BadToGood: 0.3, LossBad: 1}},
		{name: "link-flap-2ms", flap: true},
		{name: "combo", faults: netsim.FaultConfig{
			CorruptRate: 0.1, CorruptBits: 2, DuplicateRate: 0.2,
			ReorderRate: 0.2, ReorderDelay: 50 * netsim.Microsecond,
			GoodToBad: 0.02, BadToGood: 0.5, LossBad: 1,
		}, flap: true},
	}
	if o.Quick {
		scenarios = []scenario{scenarios[0], scenarios[2], scenarios[5]}
	}
	dim := 1 << 16
	if o.Quick {
		dim = 1 << 13
	}
	grad := randGrad(17+o.Seed, dim)

	t := NewTable("Fault-injection chaos matrix — transfer robustness",
		"scenario", "mode", "status", "completion_ms", "retransmits", "rejected", "dups", "nmse")
	for _, sc := range scenarios {
		for _, trimmable := range []bool{false, true} {
			mode := "reliable"
			if trimmable {
				mode = "trim-aware"
			}
			sim := netsim.NewSim()
			qmode := netsim.DropTail
			if trimmable {
				qmode = netsim.TrimOverflow
			}
			// o.Obs (possibly nil: obs instruments are nil-safe) collects
			// per-port, transport, and codec telemetry across every cell;
			// the determinism regression test diffs two same-seed exports.
			star := netsim.NewStar(sim, 2,
				netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond},
				netsim.QueueConfig{CapacityBytes: 1 << 20, HighCapacityBytes: 1 << 20, Mode: qmode},
				netsim.WithRegistry(o.Obs))
			faults := sc.faults
			faults.Seed = 23 + o.Seed
			star.Net.InjectFaults(0, netsim.SwitchIDBase, faults)
			if sc.flap {
				star.Net.FlapLink(0, netsim.SwitchIDBase, 500*netsim.Microsecond, 2*netsim.Millisecond)
			}
			cfg := transport.Config{RTO: 200 * netsim.Microsecond, MaxRetries: 30}
			a, err := transport.New(star.Hosts[0], transport.WithConfig(cfg))
			if err != nil {
				return err
			}
			b, err := transport.New(star.Hosts[1], transport.WithConfig(cfg))
			if err != nil {
				return err
			}

			ccfg := core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 10}
			enc, err := core.NewEncoderWith(core.WithConfig(ccfg), core.WithRegistry(o.Obs))
			if err != nil {
				return err
			}
			msg, err := enc.Encode(1, 1, grad)
			if err != nil {
				return err
			}
			dec, err := core.NewDecoderWith(1, core.WithConfig(ccfg), core.WithRegistry(o.Obs))
			if err != nil {
				return err
			}
			b.Receiver = transport.ReceiverFunc(func(_ netsim.NodeID, pl []byte) {
				//trimlint:allow swallowed-error decoder rejections are counted in its stats and reported in the table
				_ = dec.Handle(pl)
			})
			var done netsim.Time
			failed := false
			onDone := func(at netsim.Time) { done = at }
			onFail := func(error) { failed = true }
			if trimmable {
				a.SendTrimmable(1, 1, msg.Meta, msg.Data, onDone, onFail)
			} else {
				payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
				a.SendReliable(1, 1, payloads, onDone, onFail)
			}
			sim.RunUntil(30 * netsim.Second)

			status, completion, nmse := "HUNG", "-", "-"
			switch {
			case failed:
				status = "failed-clean"
			case done != 0:
				status = "ok"
				completion = fmt.Sprintf("%.3f", done.Seconds()*1e3)
				rec, _, err := dec.Reconstruct(dim)
				if err != nil {
					return err
				}
				nmse = fmt.Sprintf("%.2g", vecmath.NMSE(grad, rec))
			}
			// A failed or hung transfer is never reconstructed; Stats is
			// what flushes the abandoned decoder's counts into o.Obs.
			dec.Stats()
			t.Add(sc.name, mode, status, completion,
				a.Stats.Retransmits, b.Stats.RejectedPackets, b.Stats.DupsReceived, nmse)
		}
	}
	return emit(w, o, t)
}

func init() {
	register(Runner{"chaos", "fault-injection matrix: transfers under corruption/dup/reorder/burst/flap", runChaos})
}
