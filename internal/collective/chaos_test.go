package collective

import (
	"errors"
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
	cfg := transport.Config{RTO: 100 * netsim.Microsecond, MaxRetries: 16}
	ws := make([]*Worker, n)
	for i := 0; i < n; i++ {
		w, err := New(i, newStack(star.Hosts[i], cfg), WithConfig(coreCfg(quant.RHT)), WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		w.Deadline = 100 * netsim.Millisecond
		ws[i] = w
	}
	sc.apply(star, seed)

	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = gaussianGrad(seed+uint64(i)+1, 2048)
	}
	want := exactMean(grads)
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
	cfg := transport.Config{RTO: 100 * netsim.Microsecond, MaxRetries: 30}
	ws := make([]*Worker, n)
	for i := 0; i < n; i++ {
		w, err := New(i, newStack(star.Hosts[i], cfg), WithConfig(coreCfg(quant.RHT)), WithMode(Trimmable))
		if err != nil {
			t.Fatal(err)
		}
		w.Deadline = 100 * netsim.Millisecond
		ws[i] = w
	}
	star.Net.InjectFaults(0, netsim.SwitchIDBase, netsim.FaultConfig{
		Seed: 9, CorruptRate: 0.2, CorruptBits: 3, DuplicateRate: 0.3,
		ReorderRate: 0.3, ReorderDelay: 50 * netsim.Microsecond,
	})
	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = gaussianGrad(uint64(i)+21, 2048)
	}
	want := exactMean(grads)
	completed := 0
	err := AllReduce(AlgRing, 1, 100, ws, grads,
		func(rank int, avg []float32, at netsim.Time) {
			completed++
			if nm := vecmath.NMSE(want, avg); nm > 1e-8 {
				t.Errorf("rank %d average NMSE %g under faults", rank, nm)
			}
		},
		func(rank int, err error) { t.Errorf("rank %d: %v", rank, err) })
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(netsim.Second)
	if completed != n {
		t.Fatalf("%d/%d ranks completed", completed, n)
	}
}

// TestChaosCrashErrorIsExplicit pins the error type surfaced when a peer
// dies: the sender toward the dead host exhausts its retransmit budget.
func TestChaosCrashErrorIsExplicit(t *testing.T) {
	const n = 3
	sim := netsim.NewSim()
	star := netsim.NewStar(sim, n, fast(),
		netsim.QueueConfig{CapacityBytes: 8 << 20, Mode: netsim.TrimOverflow})
	cfg := transport.Config{RTO: 50 * netsim.Microsecond, MaxRetries: 5}
	ws := make([]*Worker, n)
	for i := 0; i < n; i++ {
		w, err := New(i, newStack(star.Hosts[i], cfg), WithConfig(coreCfg(quant.RHT)), WithMode(Reliable))
		if err != nil {
			t.Fatal(err)
		}
		w.Deadline = 100 * netsim.Millisecond
		ws[i] = w
	}
	star.Hosts[2].Fail()
	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = gaussianGrad(uint64(i)+31, 1024)
	}
	errs := make([]error, n)
	if err := AllReduce(AlgDirect, 1, 100, ws, grads,
		func(rank int, _ []float32, _ netsim.Time) {
			t.Errorf("rank %d completed despite a crashed peer", rank)
		},
		func(rank int, err error) { errs[rank] = err }); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(netsim.Second)
	for rank, err := range errs {
		if err == nil {
			t.Fatalf("rank %d got no error", rank)
		}
	}
	// The live ranks failed sending to the dead peer: a retries-exhausted
	// error, wrapped with the route, must be the cause.
	if !errors.Is(errs[0], transport.ErrRetriesExhausted) {
		t.Errorf("rank 0 error = %v, want ErrRetriesExhausted in the chain", errs[0])
	}
}
