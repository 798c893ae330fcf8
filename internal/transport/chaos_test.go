package transport

import (
	"bytes"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/vecmath"
)

// chaosScenario is one adversarial network condition of the regression
// matrix. Deep queues keep congestion out of the picture: the injected
// faults are the only adversary, so completed transfers must be
// byte-correct (no switch trimming is in play).
type chaosScenario struct {
	name   string
	faults netsim.FaultConfig
	flap   bool // flap the sender's link mid-transfer
}

func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{name: "corruption", faults: netsim.FaultConfig{CorruptRate: 0.3, CorruptBits: 4}},
		{name: "duplication", faults: netsim.FaultConfig{DuplicateRate: 0.5}},
		{name: "reordering", faults: netsim.FaultConfig{ReorderRate: 0.5, ReorderDelay: 100 * netsim.Microsecond}},
		{name: "burst-loss", faults: netsim.FaultConfig{GoodToBad: 0.05, BadToGood: 0.3, LossBad: 1}},
		{name: "link-flap", flap: true},
		{name: "combo", faults: netsim.FaultConfig{
			CorruptRate: 0.1, CorruptBits: 2, DuplicateRate: 0.2,
			ReorderRate: 0.2, ReorderDelay: 50 * netsim.Microsecond,
			GoodToBad: 0.02, BadToGood: 0.5, LossBad: 1,
		}, flap: true},
	}
}

// chaosOutcome is everything a chaos run observed; runs with the same
// seed must produce identical outcomes.
type chaosOutcome struct {
	doneAt    netsim.Time
	failed    bool
	delivered int
	txStats   Stats
	rxStats   Stats
	coreStats core.Stats
	nmseOK    bool
}

// runChaosTransfer ships one encoded gradient from host 0 to host 1 with
// sc's faults on host 0's link (both directions) and reports the outcome.
func runChaosTransfer(t *testing.T, trimmable bool, sc chaosScenario, seed uint64) chaosOutcome {
	t.Helper()
	sim := netsim.NewSim()
	qmode := netsim.DropTail
	if trimmable {
		qmode = netsim.TrimOverflow
	}
	star := netsim.NewStar(sim, 2,
		netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond},
		netsim.QueueConfig{CapacityBytes: 1 << 20, HighCapacityBytes: 1 << 20, Mode: qmode})
	faults := sc.faults
	faults.Seed = seed
	star.Net.InjectFaults(0, netsim.SwitchIDBase, faults)
	if sc.flap {
		star.Net.FlapLink(0, netsim.SwitchIDBase, 500*netsim.Microsecond, 2*netsim.Millisecond)
	}
	cfg := Config{RTO: 100 * netsim.Microsecond, MaxRetries: 30}
	a := newStack(star.Hosts[0], cfg)
	b := newStack(star.Hosts[1], cfg)

	enc, err := core.NewEncoderWith(core.WithConfig(coreConfig()))
	if err != nil {
		t.Fatal(err)
	}
	grad := gaussianGrad(seed, 1<<13)
	msg, err := enc.Encode(1, 1, grad)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.NewDecoderWith(1, core.WithConfig(coreConfig()))
	if err != nil {
		t.Fatal(err)
	}
	var out chaosOutcome
	b.Receiver = ReceiverFunc(func(_ netsim.NodeID, pl []byte) {
		out.delivered++
		_ = dec.Handle(pl) // rejections land in the decoder's stats
	})
	onDone := func(at netsim.Time) { out.doneAt = at }
	onFail := func(error) { out.failed = true }
	// The one ownership rule: what is handed to a Send — the bytes and the
	// slices that list them — reads the same after drain, whatever the
	// fabric did in between (corrupted a Clone, duplicated, reordered,
	// dropped, retransmitted).
	payloads := allPayloads(msg)
	handed := bytes.Join(payloads, nil)
	if trimmable {
		a.SendTrimmable(1, 1, msg.Meta, msg.Data, onDone, onFail)
	} else {
		a.SendReliable(1, 1, payloads, onDone, onFail)
	}
	const deadline = 5 * netsim.Second
	sim.RunUntil(deadline)

	for _, after := range [][][]byte{payloads, allPayloads(msg)} {
		if !bytes.Equal(bytes.Join(after, nil), handed) {
			t.Errorf("%s: a payload handed to the transport was written after Send", sc.name)
		}
	}
	if out.doneAt == 0 && !out.failed {
		t.Fatalf("%s: transfer neither completed nor failed within %v — a hang", sc.name, deadline)
	}
	if out.doneAt != 0 && out.failed {
		t.Errorf("%s: transfer reported both success and failure", sc.name)
	}
	if out.doneAt != 0 {
		rec, stats, err := dec.Reconstruct(len(grad))
		if err != nil {
			t.Fatalf("%s: reconstruct: %v", sc.name, err)
		}
		out.coreStats = stats
		// Deep queues mean no trimming: a completed transfer must decode
		// byte-correct. Corrupted packets were rejected, never delivered.
		out.nmseOK = vecmath.NMSE(grad, rec) < 1e-8
		if !out.nmseOK {
			t.Errorf("%s: completed transfer decoded with NMSE %g — silent corruption",
				sc.name, vecmath.NMSE(grad, rec))
		}
	}
	out.txStats = a.Stats
	out.rxStats = b.Stats
	return out
}

// TestChaosMatrix runs reliable and trimmable transfers under every fault
// scenario, asserting completion-or-clean-error, no silent corruption,
// and seeded determinism (same seed ⇒ identical stats and timings).
func TestChaosMatrix(t *testing.T) {
	for _, trimmable := range []bool{false, true} {
		mode := "reliable"
		if trimmable {
			mode = "trimmable"
		}
		for _, sc := range chaosScenarios() {
			sc := sc
			trimmable := trimmable
			t.Run(mode+"/"+sc.name, func(t *testing.T) {
				first := runChaosTransfer(t, trimmable, sc, 42)
				again := runChaosTransfer(t, trimmable, sc, 42)
				if first != again {
					t.Errorf("same seed diverged:\n first %+v\n again %+v", first, again)
				}
				if first.doneAt == 0 {
					// Every scenario here is survivable with 30 retries and
					// a 5 s budget; a clean failure would be acceptable per
					// the contract but indicates a recovery-path regression.
					t.Errorf("transfer failed instead of completing")
				}
			})
		}
	}
}

// TestChaosCorruptionIsCountedAndRepaired pins the corruption-rejection
// surface: flipped bits must show up in RejectedPackets, be repaired by
// retransmission, and never reach the decoder.
func TestChaosCorruptionIsCountedAndRepaired(t *testing.T) {
	for _, trimmable := range []bool{false, true} {
		mode := "reliable"
		if trimmable {
			mode = "trimmable"
		}
		t.Run(mode, func(t *testing.T) {
			sc := chaosScenario{name: "corruption", faults: netsim.FaultConfig{CorruptRate: 0.4, CorruptBits: 8}}
			out := runChaosTransfer(t, trimmable, sc, 7)
			if out.doneAt == 0 {
				t.Fatal("transfer did not complete")
			}
			if out.rxStats.RejectedPackets == 0 {
				t.Error("no packets rejected at 40% corruption — validation not engaged")
			}
			if out.coreStats.RejectedPackets != 0 {
				t.Errorf("decoder saw %d bad packets — transport let corruption through",
					out.coreStats.RejectedPackets)
			}
			if out.txStats.Retransmits == 0 {
				t.Error("corruption losses were never repaired by retransmission")
			}
		})
	}
}

// TestReliableDuplicateAckedNotRedelivered is the duplicate-delivery
// regression: with every data packet duplicated in flight, each must be
// acked (possibly twice) but delivered to the application exactly once.
func TestReliableDuplicateAckedNotRedelivered(t *testing.T) {
	sim := netsim.NewSim()
	star := netsim.NewStar(sim, 2, fastLink(), netsim.QueueConfig{CapacityBytes: 1 << 20})
	// Duplicate only the sender's outbound direction so the ack path
	// stays clean and the accounting below is exact.
	star.Hosts[0].Uplink().SetFaults(netsim.FaultConfig{Seed: 5, DuplicateRate: 1})
	a := newStack(star.Hosts[0], Config{})
	b := newStack(star.Hosts[1], Config{})

	enc, _ := core.NewEncoderWith(core.WithConfig(coreConfig()))
	grad := gaussianGrad(11, 1<<12)
	msg, _ := enc.Encode(1, 1, grad)
	payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
	dec, _ := core.NewDecoderWith(1, core.WithConfig(coreConfig()))
	delivered := 0
	b.Receiver = ReceiverFunc(func(_ netsim.NodeID, pl []byte) {
		delivered++
		if err := dec.Handle(pl); err != nil {
			t.Errorf("decoder: %v", err)
		}
	})
	done := false
	a.SendReliable(1, 1, payloads, func(netsim.Time) { done = true }, nil)
	sim.Run()

	if !done {
		t.Fatal("transfer did not complete")
	}
	if delivered != len(payloads) {
		t.Errorf("delivered %d payloads to the app, want exactly %d", delivered, len(payloads))
	}
	if b.Stats.DupsReceived == 0 {
		t.Error("no duplicates observed despite DuplicateRate 1")
	}
	if b.Stats.AcksSent != len(payloads)+b.Stats.DupsReceived {
		t.Errorf("acks %d != uniques %d + dups %d — duplicates must be re-acked",
			b.Stats.AcksSent, len(payloads), b.Stats.DupsReceived)
	}
	out, _, err := dec.Reconstruct(len(grad))
	if err != nil {
		t.Fatal(err)
	}
	if nm := vecmath.NMSE(grad, out); nm > 1e-8 {
		t.Errorf("NMSE = %g under duplication", nm)
	}
}

// TestTrimmableDuplicateAckedNotRedelivered is the same regression for
// the trim-aware path: duplicated metas and data are absorbed without
// double delivery.
func TestTrimmableDuplicateAckedNotRedelivered(t *testing.T) {
	sim := netsim.NewSim()
	star := netsim.NewStar(sim, 2, fastLink(),
		netsim.QueueConfig{CapacityBytes: 1 << 20, Mode: netsim.TrimOverflow})
	star.Hosts[0].Uplink().SetFaults(netsim.FaultConfig{Seed: 6, DuplicateRate: 1})
	a := newStack(star.Hosts[0], Config{})
	b := newStack(star.Hosts[1], Config{})

	enc, _ := core.NewEncoderWith(core.WithConfig(coreConfig()))
	grad := gaussianGrad(12, 1<<12)
	msg, _ := enc.Encode(1, 1, grad)
	dec, _ := core.NewDecoderWith(1, core.WithConfig(coreConfig()))
	delivered := 0
	b.Receiver = ReceiverFunc(func(_ netsim.NodeID, pl []byte) {
		delivered++
		if err := dec.Handle(pl); err != nil {
			t.Errorf("decoder: %v", err)
		}
	})
	done := false
	a.SendTrimmable(1, 1, msg.Meta, msg.Data, func(netsim.Time) { done = true }, nil)
	sim.Run()

	if !done {
		t.Fatal("transfer did not complete")
	}
	if want := len(msg.Meta) + len(msg.Data); delivered != want {
		t.Errorf("delivered %d payloads to the app, want exactly %d", delivered, want)
	}
	if b.Stats.DupsReceived == 0 {
		t.Error("no duplicates observed despite DuplicateRate 1")
	}
	out, _, err := dec.Reconstruct(len(grad))
	if err != nil {
		t.Fatal(err)
	}
	if nm := vecmath.NMSE(grad, out); nm > 1e-8 {
		t.Errorf("NMSE = %g under duplication", nm)
	}
}

// TestChaosNodePauseRecovers pauses the receiver mid-transfer; the
// sender's backoff must ride out the outage and complete after resume.
func TestChaosNodePauseRecovers(t *testing.T) {
	sim := netsim.NewSim()
	star := netsim.NewStar(sim, 2, fastLink(), netsim.QueueConfig{CapacityBytes: 1 << 20})
	cfg := Config{RTO: 100 * netsim.Microsecond, MaxRetries: 30}
	a := newStack(star.Hosts[0], cfg)
	b := newStack(star.Hosts[1], cfg)
	b.Receiver = ReceiverFunc(func(netsim.NodeID, []byte) {})

	enc, _ := core.NewEncoderWith(core.WithConfig(coreConfig()))
	msg, _ := enc.Encode(1, 1, gaussianGrad(13, 1<<13))
	payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
	// Receiver is down from the first packet; the sender's backoff must
	// ride out the full 3 ms outage.
	star.Hosts[1].Pause(3 * netsim.Millisecond)
	done := false
	a.SendReliable(1, 1, payloads, func(netsim.Time) { done = true },
		func(err error) { t.Fatalf("failed: %v", err) })
	sim.RunUntil(5 * netsim.Second)
	if !done {
		t.Fatal("transfer did not survive a 3 ms receiver pause")
	}
	if star.Hosts[1].DownDrops == 0 {
		t.Error("pause window saw no traffic — timing drifted, tighten the test")
	}
}

// TestChaosNodeCrashFailsCleanly crashes the receiver permanently; the
// sender must surface ErrRetriesExhausted, not retry forever.
func TestChaosNodeCrashFailsCleanly(t *testing.T) {
	for _, trimmable := range []bool{false, true} {
		mode := "reliable"
		if trimmable {
			mode = "trimmable"
		}
		t.Run(mode, func(t *testing.T) {
			sim := netsim.NewSim()
			star := netsim.NewStar(sim, 2, fastLink(), netsim.QueueConfig{CapacityBytes: 1 << 20})
			cfg := Config{RTO: 50 * netsim.Microsecond, MaxRetries: 8}
			a := newStack(star.Hosts[0], cfg)
			b := newStack(star.Hosts[1], cfg)
			b.Receiver = ReceiverFunc(func(netsim.NodeID, []byte) {})

			enc, _ := core.NewEncoderWith(core.WithConfig(coreConfig()))
			msg, _ := enc.Encode(1, 1, gaussianGrad(14, 1<<11))
			star.Hosts[1].Fail()
			var failErr error
			onDone := func(netsim.Time) { t.Error("completed against a crashed host") }
			if trimmable {
				a.SendTrimmable(1, 1, msg.Meta, msg.Data, onDone, func(err error) { failErr = err })
			} else {
				payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
				a.SendReliable(1, 1, payloads, onDone, func(err error) { failErr = err })
			}
			sim.RunUntil(netsim.Second)
			if failErr != ErrRetriesExhausted {
				t.Fatalf("failure error = %v, want ErrRetriesExhausted", failErr)
			}
			if a.Stats.Failures != 1 {
				t.Errorf("Failures = %d, want 1", a.Stats.Failures)
			}
		})
	}
}
