package scenario

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
)

var testLink = netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond}

// comboFault is the chaos matrix's worst cell: corruption, duplication,
// reordering and bursty loss at once.
var comboFault = netsim.FaultConfig{
	Seed: 23, CorruptRate: 0.1, CorruptBits: 2, DuplicateRate: 0.2,
	ReorderRate: 0.2, ReorderDelay: 50 * netsim.Microsecond,
	GoodToBad: 0.02, BadToGood: 0.5, LossBad: 1,
}

// export runs s and renders everything the run observed — the telemetry
// export, each flow's outcome, the clock and the event count — after
// checking the two invariants that hold for any single run: the fabric
// passes Network.Audit, which Run reports (pooled packets balance, every
// port transmitted or still holds what it admitted), and every flow
// settled.
func export(t testing.TB, s Scenario) string {
	t.Helper()
	res, err := Run(s, obs.New())
	if err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, res.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i, f := range res.Flows {
		if f.Done == 0 && f.Err == nil {
			t.Errorf("flow %d (%d->%d) neither finished nor failed by %v", i, f.Src, f.Dst, res.Now)
		}
		if f.Done != 0 && f.Err != nil {
			t.Errorf("flow %d (%d->%d) both finished and failed", i, f.Src, f.Dst)
		}
		if s.Decode && !s.Reliable && f.Done != 0 && !f.Decoded {
			t.Errorf("flow %d (%d->%d) completed but could not be decoded", i, f.Src, f.Dst)
		}
		fmt.Fprintf(&buf, "flow %d %d->%d done=%d err=%v decoded=%v nmse=%v stats=%+v\n",
			i, f.Src, f.Dst, f.Done, f.Err, f.Decoded, f.NMSE, f.Stats)
	}
	fmt.Fprintf(&buf, "completed=%d retransmits=%d now=%d processed=%d", res.FCT.Count(), res.Retransmits(), res.Now, res.Processed)
	return buf.String()
}

// checkScenario holds s to the four properties every scenario must have:
// the two single-run invariants export checks, the same bytes from the
// same seeds, and the same bytes at every partition — plain Sim, one
// shard, and shards shards.
func checkScenario(t testing.TB, s Scenario, shards int) {
	t.Helper()
	s.Shards = 0
	plain := export(t, s)
	if again := export(t, s); again != plain {
		t.Errorf("two same-seed runs exported different bytes:\n%s", firstDiff(plain, again))
	}
	counts := []int{1}
	if shards > 1 {
		counts = append(counts, shards)
	}
	for _, n := range counts {
		s.Shards = n
		if got := export(t, s); got != plain {
			t.Errorf("%d-shard export differs from the plain simulator's:\n%s", n, firstDiff(plain, got))
		}
	}
}

func firstDiff(a, b string) string {
	la, lb := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(la), len(lb))
}

// scenarioMatrix runs fabric × transport × background through
// checkScenario, on clean links or with the chaos combo fault and a flap
// on the first sender's uplink.
func scenarioMatrix(t *testing.T, faulty bool) {
	fabrics := []struct {
		spec     netsim.FabricSpec
		workload string
	}{
		{netsim.FabricSpec{Kind: "star", N: 6}, "incast"},
		{netsim.FabricSpec{Kind: "dumbbell", N: 5}, "incast"},
		{netsim.FabricSpec{Kind: "ring", N: 4}, "permutation"},
		{netsim.FabricSpec{Kind: "fattree", K: 4}, "incast:6"},
		{netsim.FabricSpec{Kind: "leafspine", Leaves: 4, Spines: 2, HostsPerLeaf: 2, Oversub: 4}, "alltoall"},
	}
	for _, fab := range fabrics {
		for _, reliable := range []bool{false, true} {
			for _, background := range []bool{false, true} {
				name := fmt.Sprintf("%s/reliable=%v/background=%v", fab.spec.Kind, reliable, background)
				t.Run(name, func(t *testing.T) {
					s := Scenario{
						Fabric: fab.spec, Workload: fab.workload, WorkloadSeed: 7,
						Dim: 1 << 12, GradSeed: 80,
						Codec:     core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 10},
						Reliable:  reliable,
						Transport: transport.Config{RTO: 200 * netsim.Microsecond, MaxRetries: 30},
						Decode:    true,
						Horizon:   5 * netsim.Second, Slice: netsim.Millisecond,
					}
					s.Fabric.Link, s.Fabric.ECMPSeed = testLink, 31
					s.Fabric.Queue = netsim.QueueConfig{CapacityBytes: 16 << 10, HighCapacityBytes: 256 << 10, Mode: netsim.TrimOverflow}
					if reliable {
						s.Fabric.Queue.Mode = netsim.DropTail
					}
					if faulty {
						s.Faults = []LinkFault{{
							Host: 0, Config: comboFault,
							FlapAt: 100 * netsim.Microsecond, FlapFor: 300 * netsim.Microsecond,
						}}
					}
					if background {
						s.MiceRate, s.ElephantRate, s.MixSeed, s.BackgroundSeed = 2e5, 5e4, 41, 43
					}
					checkScenario(t, s, min(2, s.Fabric.Racks()))
				})
			}
		}
	}
}

// TestScenarioMatrix and TestScenarioMatrixFaulty cover the combinations
// no hand-wired rig reached. The faulty half is part of check.sh -chaos's
// race pass, which selects tests by name.
func TestScenarioMatrix(t *testing.T)       { scenarioMatrix(t, false) }
func TestScenarioMatrixFaulty(t *testing.T) { scenarioMatrix(t, true) }

// TestFaultyLinkFailsFlowCleanly: a sender whose link eats everything exhausts its
// retries and reports an error; the run stops there instead of idling to
// the horizon, and the other flows still finish.
func TestFaultyLinkFailsFlowCleanly(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		res, err := Run(Scenario{
			Fabric: netsim.FabricSpec{Kind: "dumbbell", N: 4, Link: testLink,
				Queue: netsim.QueueConfig{CapacityBytes: 64 << 10, Mode: netsim.TrimOverflow}},
			Workload: "incast", Dim: 1 << 11,
			Codec:     core.Config{Params: quant.Params{Scheme: quant.Sign}, RowSize: 1 << 10},
			Reliable:  reliable,
			Transport: transport.Config{RTO: 100 * netsim.Microsecond, MaxRetries: 4},
			Faults:    []LinkFault{{Host: 1, Config: netsim.FaultConfig{LossGood: 1}}},
			Horizon:   10 * netsim.Second, Slice: netsim.Millisecond,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if f := res.Flows[1]; f.Err == nil || f.Done != 0 {
			t.Errorf("reliable=%v: flow on the dead link: done=%v err=%v, want a clean failure", reliable, f.Done, f.Err)
		}
		if res.FCT.Count() != 2 {
			t.Errorf("reliable=%v: %d flows completed, want the 2 on healthy links", reliable, res.FCT.Count())
		}
		if res.Now >= netsim.Second {
			t.Errorf("reliable=%v: ran to %v after every flow had settled", reliable, res.Now)
		}
	}
}

// TestValidateRejects: everything Run would choke on is refused by
// Validate, which builds nothing.
func TestValidateRejects(t *testing.T) {
	good := Scenario{
		Fabric:   netsim.FabricSpec{Kind: "star", N: 4, Link: testLink},
		Workload: "incast", Dim: 64, Codec: core.Config{RowSize: 64},
		Horizon: netsim.Second,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("baseline scenario rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Scenario){
		"fabric":            func(s *Scenario) { s.Fabric.Kind = "torus" },
		"workload grammar":  func(s *Scenario) { s.Workload = "gossip" },
		"workload fan":      func(s *Scenario) { s.Workload = "incast:4" },
		"one host":          func(s *Scenario) { s.Fabric.N = 1 },
		"negative shards":   func(s *Scenario) { s.Shards = -1 },
		"shards over racks": func(s *Scenario) { s.Shards = 2 },
		"zero dim":          func(s *Scenario) { s.Dim = 0 },
		"row size":          func(s *Scenario) { s.Codec.RowSize = 48 },
		"scheme":            func(s *Scenario) { s.Codec.Params.Scheme = 200 },
		"negative cross":    func(s *Scenario) { s.CrossRate = -1 },
		"NaN mice":          func(s *Scenario) { s.MiceRate = math.NaN() },
		"infinite elephant": func(s *Scenario) { s.ElephantRate = math.Inf(1) },
		"fault host":        func(s *Scenario) { s.Faults = []LinkFault{{Host: 4}} },
		"negative flap":     func(s *Scenario) { s.Faults = []LinkFault{{FlapAt: -1, FlapFor: 1}} },
		"decode aggregates": func(s *Scenario) { s.Decode, s.Fabric.Queue.AggregateTrimmable = true, true },
		"no horizon":        func(s *Scenario) { s.Horizon = 0 },
		"negative slice":    func(s *Scenario) { s.Slice = -1 },
	} {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
		if _, err := Run(s, nil); err == nil {
			t.Errorf("%s: Run accepted %+v", name, s)
		}
	}
}

// fuzzScenario maps any byte string onto a small valid scenario (≤ 16
// hosts, dim ≤ 2¹¹, ≤ 2 faulty links) and the shard count to compare it
// at. Every byte of the 16-byte program selects something; out-of-range
// draws wrap to valid ones, missing bytes read as zero, extra bytes are
// ignored.
func fuzzScenario(program []byte) (Scenario, int) {
	var b [16]byte
	copy(b[:], program)
	pick := func(x byte, n int) int { return int(x) % n }

	fab := netsim.FabricSpec{
		Kind:     []string{"star", "dumbbell", "ring", "fattree", "leafspine"}[pick(b[0], 5)],
		N:        2 + pick(b[1], 7),
		K:        2 + 2*pick(b[1], 2),
		Leaves:   1 + pick(b[1], 4),
		Spines:   1 + pick(b[1]>>2, 2),
		Oversub:  []float64{0, 1, 2, 4}[pick(b[2], 4)],
		ECMPSeed: uint64(b[11]),
		Link: netsim.LinkConfig{
			Bandwidth: netsim.Gbps([]float64{1, 10}[pick(b[2]>>2, 2)]),
			Delay:     netsim.Time(1+4*pick(b[2]>>3, 2)) * netsim.Microsecond,
		},
		Queue: netsim.QueueConfig{
			CapacityBytes:      []int{4 << 10, 16 << 10, 64 << 10, 1 << 20}[pick(b[3], 4)],
			Mode:               netsim.QueueMode(pick(b[3]>>2, 2)),
			TrimTarget:         400 * pick(b[3]>>3, 2),
			LossRate:           0.01 * float64(pick(b[3]>>4, 2)),
			LossSeed:           uint64(b[11]) + 99,
			AggregateTrimmable: pick(b[3]>>5, 2) == 1,
		},
	}
	fab.HostsPerLeaf = 1 + pick(b[1]>>3, 16/fab.Leaves)
	if fab.Kind == "leafspine" && fab.Hosts() < 2 {
		fab.HostsPerLeaf = 2
	}
	hosts := fab.Hosts()

	s := Scenario{
		Fabric:       fab,
		WorkloadSeed: uint64(b[11]) + 7,
		Dim:          1 + (int(b[5])<<8|int(b[6]))%(1<<11),
		GradSeed:     uint64(b[11]) + 80,
		Codec: core.Config{
			Params:  quant.Params{Scheme: []quant.Scheme{quant.Sign, quant.SQ, quant.SD, quant.RHT}[pick(b[7], 4)]},
			RowSize: []int{1 << 8, 1 << 10}[pick(b[7]>>2, 2)],
		},
		Reliable: pick(b[8], 2) == 1,
		Decode:   pick(b[8]>>1, 2) == 1 && !fab.Queue.AggregateTrimmable,
		Transport: transport.Config{
			RTO:        []netsim.Time{100, 200, 500}[pick(b[9], 3)] * netsim.Microsecond,
			MaxRetries: []int{5, 12}[pick(b[9]>>2, 2)],
		},
		CrossRate:      1e4 * float64(pick(b[10], 2)),
		MiceRate:       5e4 * float64(pick(b[10]>>1, 2)),
		ElephantRate:   2e4 * float64(pick(b[10]>>2, 2)),
		MixSeed:        uint64(b[11]) + 41,
		BackgroundSeed: uint64(b[11]) + 43,
		Horizon:        2 * netsim.Second,
		Slice:          []netsim.Time{250 * netsim.Microsecond, netsim.Millisecond}[pick(b[15], 2)],
	}
	switch pick(b[4], 3) {
	case 0:
		s.Workload = fmt.Sprintf("incast:%d", 1+pick(b[4]>>2, hosts-1))
	case 1:
		s.Workload = "alltoall"
	case 2:
		s.Workload = "permutation"
	}
	for _, f := range [][2]byte{{b[12], b[13]}, {b[14], b[15] >> 1}} {
		mix := f[1]
		if mix&0x1f == 0 {
			continue // no fault on this link
		}
		lf := LinkFault{Host: pick(f[0], hosts), Config: netsim.FaultConfig{
			Seed:          uint64(b[11]) + 23,
			CorruptRate:   0.1 * float64(mix&1),
			CorruptBits:   2,
			DuplicateRate: 0.2 * float64(mix>>1&1),
			ReorderRate:   0.2 * float64(mix>>2&1),
			ReorderDelay:  50 * netsim.Microsecond,
			GoodToBad:     0.02 * float64(mix>>3&1),
			BadToGood:     0.5, LossBad: 1,
		}}
		if mix>>4&1 == 1 {
			lf.FlapAt, lf.FlapFor = netsim.Time(mix>>5)*50*netsim.Microsecond, 300*netsim.Microsecond
		}
		s.Faults = append(s.Faults, lf)
	}
	return s, 1 + pick(b[8]>>2, fab.Racks())
}

// FuzzScenario drives checkScenario from bytes: any reachable combination
// of fabric, partition, workload, transport, codec, background and faults
// must settle every flow, pass Network.Audit, repeat byte-for-byte, and
// not depend on the partition.
func FuzzScenario(f *testing.F) {
	f.Add([]byte{})                                                           // 2-host star, 1-sender incast, trim-aware sign
	f.Add([]byte{3, 1, 3, 1, 0x1c, 7, 255, 3, 6, 1, 6, 9, 0, 0x1f, 5, 0x3f})  // fat tree, faults on two links, background
	f.Add([]byte{4, 0x1f, 7, 0x24, 1, 3, 0, 7, 5, 4, 1, 2, 3, 0x0a, 0, 1})    // leaf–spine alltoall, aggregating, reliable
	f.Add([]byte{1, 3, 0, 0x14, 2, 1, 1, 2, 1, 2, 7, 4, 4, 0x18, 0, 0})       // lossy dumbbell permutation, reliable, cross traffic
	f.Add([]byte{2, 5, 9, 6, 2, 8, 0, 1, 0x0f, 0, 0, 1, 1, 0x11, 2, 0x22, 9}) // ring, drop-tail under the trim-aware transport
	f.Fuzz(func(t *testing.T, program []byte) {
		s, shards := fuzzScenario(program)
		if err := s.Validate(); err != nil {
			t.Fatalf("program %v decoded to an invalid scenario: %v\n%+v", program, err, s)
		}
		checkScenario(t, s, shards)
		if t.Failed() {
			t.Logf("program %v is scenario %+v at %d shards", program, s, shards)
		}
	})
}
