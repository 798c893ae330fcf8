package exp

import (
	"fmt"
	"io"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/scenario"
	"trimgrad/internal/transport"
)

// runChaos sweeps the fault-injection matrix over both transports: one
// gradient transfer per (scenario, mode) cell on a faulty link, reporting
// whether it completed byte-correct, failed cleanly, or (a bug) hung.
// This is the tabular companion to the chaos regression tests — the same
// scenarios, surfaced as numbers so recovery-cost regressions are visible,
// not just pass/fail.
func runChaos(w io.Writer, o Options) error {
	type cell struct {
		name   string
		faults netsim.FaultConfig
		flap   bool
	}
	cells := []cell{
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
	dim := 1 << 16
	if o.Quick {
		cells = []cell{cells[0], cells[2], cells[5]}
		dim = 1 << 13
	}

	t := NewTable("Fault-injection chaos matrix — transfer robustness",
		"scenario", "mode", "status", "completion_ms", "retransmits", "rejected", "dups", "nmse")
	for _, c := range cells {
		for _, trimmable := range []bool{false, true} {
			mode, qmode := "reliable", netsim.DropTail
			if trimmable {
				mode, qmode = "trim-aware", netsim.TrimOverflow
			}
			// The faulty link is the sender's uplink.
			fault := scenario.LinkFault{Host: 0, Config: c.faults}
			fault.Config.Seed = 23 + o.Seed
			if c.flap {
				fault.FlapAt, fault.FlapFor = 500*netsim.Microsecond, 2*netsim.Millisecond
			}
			// o.Obs (possibly nil: obs instruments are nil-safe) collects
			// per-port, transport, and codec telemetry across every cell;
			// the determinism regression test diffs two same-seed exports.
			res, err := scenario.Run(scenario.Scenario{
				Fabric: netsim.FabricSpec{Kind: "star", N: 2, Link: link10G,
					Queue: netsim.QueueConfig{CapacityBytes: 1 << 20, HighCapacityBytes: 1 << 20, Mode: qmode}},
				Workload: "incast", Dim: dim, GradSeed: 17 + o.Seed,
				Codec:    core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 10},
				Reliable: !trimmable, Decode: true,
				Transport: transport.Config{RTO: 200 * netsim.Microsecond, MaxRetries: 30},
				Faults:    []scenario.LinkFault{fault}, Horizon: 30 * netsim.Second,
			}, o.Obs)
			if err != nil {
				return err
			}
			f := res.Flows[0]
			status, completion, nmse := "HUNG", "-", "-"
			switch {
			case f.Err != nil:
				status = "failed-clean"
			case f.Done != 0:
				if !f.Decoded {
					return fmt.Errorf("exp: chaos %s/%s: the transfer completed but its gradient cannot be reconstructed", c.name, mode)
				}
				status = "ok"
				completion = fmt.Sprintf("%.3f", f.Done.Seconds()*1e3)
				nmse = fmt.Sprintf("%.2g", f.NMSE)
			}
			rx := res.Stacks[1].Stats
			t.Add(c.name, mode, status, completion,
				res.Retransmits(), rx.RejectedPackets, rx.DupsReceived, nmse)
		}
	}
	return emit(w, o, t)
}

func init() {
	register(Runner{"chaos", "fault-injection matrix: transfers under corruption/dup/reorder/burst/flap", runChaos})
}
