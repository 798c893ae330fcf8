package collective

import (
	"errors"
	"fmt"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
	"trimgrad/internal/vecmath"
)

// collChaosScenario is one adversarial condition an all-reduce must
// survive (completing byte-correct) or fail cleanly (every rank reports an
// explicit error before its deadline — never a hang).
type collChaosScenario struct {
	name      string
	faults    netsim.FaultConfig // injected on worker 0's link, both ways
	flap      bool               // flap worker 0's link mid-round
	crash     int                // rank to Fail() before the round; -1 none
	partition int                // rank whose link goes down for good; -1 none
	wantError bool               // true when every rank must error
}

func collChaosScenarios() []collChaosScenario {
	return []collChaosScenario{
		{name: "corruption", faults: netsim.FaultConfig{CorruptRate: 0.25, CorruptBits: 4}, crash: -1, partition: -1},
		{name: "duplication", faults: netsim.FaultConfig{DuplicateRate: 0.5}, crash: -1, partition: -1},
		{name: "reordering", faults: netsim.FaultConfig{ReorderRate: 0.5, ReorderDelay: 100 * netsim.Microsecond}, crash: -1, partition: -1},
		{name: "burst-loss", faults: netsim.FaultConfig{GoodToBad: 0.05, BadToGood: 0.3, LossBad: 1}, crash: -1, partition: -1},
		{name: "link-flap", flap: true, crash: -1, partition: -1},
		{name: "combo", faults: netsim.FaultConfig{
			CorruptRate: 0.1, CorruptBits: 2, DuplicateRate: 0.2,
			ReorderRate: 0.2, ReorderDelay: 50 * netsim.Microsecond,
			GoodToBad: 0.02, BadToGood: 0.5, LossBad: 1,
		}, flap: true, crash: -1, partition: -1},
		{name: "node-crash", crash: 2, partition: -1, wantError: true},
		{name: "partition", crash: -1, partition: 2, wantError: true},
	}
}

// apply arms the scenario's faults on a star fabric.
func (sc collChaosScenario) apply(star *netsim.Topology, seed uint64) {
	faults := sc.faults
	faults.Seed = seed
	star.Net.InjectFaults(0, netsim.SwitchIDBase, faults)
	if sc.flap {
		star.Net.FlapLink(0, netsim.SwitchIDBase, 200*netsim.Microsecond, 2*netsim.Millisecond)
	}
	if sc.crash >= 0 {
		star.Hosts[sc.crash].Fail()
	}
	if sc.partition >= 0 {
		star.Net.SetLinkDown(netsim.NodeID(sc.partition), netsim.SwitchIDBase, true)
	}
}

// rankOutcome is one rank's observable result; two same-seed runs must
// produce identical outcomes rank for rank.
type rankOutcome struct {
	done   bool
	doneAt netsim.Time
	errStr string
	nmseOK bool
	agg    core.Stats
}

// chaosWorkers binds one worker per star host, each with a 100 ms deadline.
func chaosWorkers(t *testing.T, star *netsim.Topology, cfg transport.Config, mode Mode) []*Worker {
	t.Helper()
	ws, err := Bind(star.Hosts, cfg, WithConfig(coreCfg(quant.RHT)), WithMode(mode))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		w.Deadline = 100 * netsim.Millisecond
	}
	return ws
}

// runChaosAllReduce executes one 3-worker all-reduce of the given
// algorithm under sc.
func runChaosAllReduce(t *testing.T, alg Algorithm, mode Mode, sc collChaosScenario, seed uint64) []rankOutcome {
	t.Helper()
	const n = 3
	sim := netsim.NewSim()
	star := netsim.NewStar(sim, n, fast(),
		netsim.QueueConfig{CapacityBytes: 8 << 20, Mode: netsim.TrimOverflow})
	// Small RTO and retry budget so a dead peer fails the round fast; the
	// deadline is the backstop for ranks that merely wait in silence. The
	// budget is sized for the parameter-server schedule, which funnels every
	// flow across worker 0's faulty link (16 backoffs ≈ 21ms « deadline).
	ws := chaosWorkers(t, star, transport.Config{RTO: 100 * netsim.Microsecond, MaxRetries: 16}, mode)
	sc.apply(star, seed)

	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = gaussianGrad(seed+uint64(i)+1, 2048)
	}
	want := exactMean(grads)
	// The callbacks, not RunAllReduce, so that a rank reporting twice shows.
	out := make([]rankOutcome, n)
	err := AllReduce(alg, 1, 100, ws, grads,
		func(rank int, avg []float32, at netsim.Time) {
			if out[rank].done || out[rank].errStr != "" {
				t.Errorf("%s: rank %d completed after a prior outcome", sc.name, rank)
			}
			out[rank].done = true
			out[rank].doneAt = at
			out[rank].nmseOK = vecmath.NMSE(want, avg) < 1e-8
		},
		func(rank int, err error) {
			if out[rank].done || out[rank].errStr != "" {
				t.Errorf("%s: rank %d errored after a prior outcome", sc.name, rank)
			}
			out[rank].errStr = err.Error()
		})
	if err != nil {
		t.Fatalf("%s: AllReduce(%v): %v", sc.name, alg, err)
	}
	sim.RunUntil(netsim.Second)
	if err := star.Net.Audit(); err != nil {
		t.Errorf("%s: %v", sc.name, err)
	}

	for rank := range out {
		if !out[rank].done && out[rank].errStr == "" {
			t.Fatalf("%s: rank %d neither completed nor errored — a hang", sc.name, rank)
		}
		if out[rank].done && !out[rank].nmseOK {
			t.Errorf("%s: rank %d completed with a wrong average", sc.name, rank)
		}
		out[rank].agg = ws[rank].AggStats
	}
	return out
}

// TestChaosAllReduceMatrix is the graceful-degradation contract, over
// every all-reduce algorithm: under every fault scenario, each rank of a
// 3-worker all-reduce either delivers the exact average or reports an
// explicit error before its deadline — never a hang — and the whole
// outcome is reproducible bit for bit from the seed.
func TestChaosAllReduceMatrix(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, mode := range []Mode{Reliable, Trimmable} {
			name := alg.String() + "/reliable"
			if mode == Trimmable {
				name = alg.String() + "/trimmable"
			}
			for _, sc := range collChaosScenarios() {
				alg, mode, sc := alg, mode, sc
				t.Run(name+"/"+sc.name, func(t *testing.T) {
					first := runChaosAllReduce(t, alg, mode, sc, 42)
					again := runChaosAllReduce(t, alg, mode, sc, 42)
					for rank := range first {
						if first[rank] != again[rank] {
							t.Errorf("rank %d diverged across same-seed runs:\n first %+v\n again %+v",
								rank, first[rank], again[rank])
						}
						if sc.wantError && first[rank].errStr == "" {
							t.Errorf("rank %d completed despite a dead peer", rank)
						}
						if !sc.wantError && !first[rank].done {
							t.Errorf("rank %d failed a survivable scenario: %s", rank, first[rank].errStr)
						}
					}
				})
			}
		}
	}
}

// TestChaosRingAllReduceSurvivesFaults runs the ring algorithm under
// combined faults: every hop decodes and re-encodes, so one noisy link
// must not corrupt the final average.
func TestChaosRingAllReduceSurvivesFaults(t *testing.T) {
	const n = 4
	sim := netsim.NewSim()
	star := netsim.NewStar(sim, n, fast(),
		netsim.QueueConfig{CapacityBytes: 8 << 20, Mode: netsim.TrimOverflow})
	ws := chaosWorkers(t, star, transport.Config{RTO: 100 * netsim.Microsecond, MaxRetries: 30}, Trimmable)
	star.Net.InjectFaults(0, netsim.SwitchIDBase, netsim.FaultConfig{
		Seed: 9, CorruptRate: 0.2, CorruptBits: 3, DuplicateRate: 0.3,
		ReorderRate: 0.3, ReorderDelay: 50 * netsim.Microsecond,
	})
	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = gaussianGrad(uint64(i)+21, 2048)
	}
	want := exactMean(grads)
	for rank, avg := range mustAllReduce(t, sim, AlgRing, 1, 100, ws, grads) {
		if nm := vecmath.NMSE(want, avg); nm > 1e-8 {
			t.Errorf("rank %d average NMSE %g under faults", rank, nm)
		}
	}
}

// TestChaosCrashErrorIsExplicit pins the error type surfaced when a peer
// dies: the sender toward the dead host exhausts its retransmit budget.
func TestChaosCrashErrorIsExplicit(t *testing.T) {
	const n = 3
	sim := netsim.NewSim()
	star := netsim.NewStar(sim, n, fast(),
		netsim.QueueConfig{CapacityBytes: 8 << 20, Mode: netsim.TrimOverflow})
	ws := chaosWorkers(t, star, transport.Config{RTO: 50 * netsim.Microsecond, MaxRetries: 5}, Reliable)
	star.Hosts[2].Fail()
	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = gaussianGrad(uint64(i)+31, 1024)
	}
	outs, err := RunAllReduce(sim, netsim.Second, AlgDirect, 1, 100, ws, grads)
	if err == nil || len(outs) != n {
		t.Fatalf("a round with a crashed peer: %d outcomes, error %v", len(outs), err)
	}
	first := 0
	for rank, o := range outs {
		if o.Err == nil {
			t.Fatalf("rank %d got no error (completed: %v)", rank, o.Avg != nil)
		}
		if o.At < outs[first].At {
			first = rank
		}
	}
	// The round's error is the earliest failure's; a tie names the lower rank.
	if want := fmt.Sprintf("rank %d: %v", first, outs[first].Err); err.Error() != want {
		t.Errorf("round error %q, want %q", err, want)
	}
	// The live ranks failed sending to the dead peer: a retries-exhausted
	// error, wrapped with the route, must be the cause.
	if !errors.Is(outs[0].Err, transport.ErrRetriesExhausted) {
		t.Errorf("rank 0 error = %v, want ErrRetriesExhausted in the chain", outs[0].Err)
	}
}
