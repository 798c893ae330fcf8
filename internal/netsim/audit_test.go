package netsim

import (
	"strings"
	"testing"

	"trimgrad/internal/obs"
)

// TestRunLookupAudit pins Audit's lookup check on the plain simulator and
// at 2 shards: resolving an instrument by name inside an event fails the
// audit, while recording a span there, or looking one up between two
// RunUntil slices, does not.
func TestRunLookupAudit(t *testing.T) {
	cases := []struct {
		name  string
		do    func(s *Sim, runUntil func(Time))
		audit string // substring of Audit's report; "" for a clean audit
	}{
		{"lookup in an event", func(s *Sim, runUntil func(Time)) {
			s.At(Microsecond, func() { s.Obs().Counter("test.lookups_total").Add(1) })
			runUntil(maxTime)
		}, "1 registry lookups inside a run"},
		{"span in an event", func(s *Sim, runUntil func(Time)) {
			s.At(Microsecond, func() { s.Obs().RecordSpan("test.span", 0, int64(s.Now())) })
			runUntil(maxTime)
		}, ""},
		{"lookup between slices", func(s *Sim, runUntil func(Time)) {
			s.At(Microsecond, func() {})
			s.At(3*Microsecond, func() {})
			runUntil(2 * Microsecond)
			s.Obs().Counter("test.lookups_total").Add(1)
			runUntil(maxTime)
		}, ""},
	}
	for _, shards := range []int{0, 2} {
		for _, c := range cases {
			t.Run(map[int]string{0: "plain/", 2: "shards=2/"}[shards]+c.name, func(t *testing.T) {
				sim := NewSim()
				link := LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}
				topo := NewRing(sim, 8, link, link, QueueConfig{}, WithRegistry(obs.New()))
				runUntil := sim.RunUntil
				if shards > 0 {
					eng, err := ShardTopology(topo, shards)
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					runUntil = eng.RunUntil
				}
				// The last host sits on the last shard.
				c.do(topo.Hosts[len(topo.Hosts)-1].Sim(), runUntil)
				err := topo.Net.Audit()
				if c.audit == "" && err != nil {
					t.Fatalf("Audit() = %v, want nil", err)
				}
				if c.audit != "" && (err == nil || !strings.Contains(err.Error(), c.audit)) {
					t.Fatalf("Audit() = %v, want a report containing %q", err, c.audit)
				}
			})
		}
	}
}

// TestMonotoneTimeAudit plants a mutant wake, one that catches its port up
// but never re-arms, into a trimming incast on a k = 4 fat tree, on the
// plain simulator and at 2 shards. A busy port then falls behind its
// virtual serialization ends until a run's end catches it up, and the
// arrivals it starts then are due before the clock: the next slice fires
// them in the past, and Audit must report the first one by kind and port.
// The same run with its wakes intact audits clean.
func TestMonotoneTimeAudit(t *testing.T) {
	for _, shards := range []int{0, 2} {
		for _, mutant := range []bool{false, true} {
			topo := fatTree(t, 4, QueueConfig{CapacityBytes: 6_000, HighCapacityBytes: 64 << 10, Mode: TrimOverflow})
			runUntil := topo.Net.Sim.RunUntil
			if shards > 0 {
				eng, err := ShardTopology(topo, shards)
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				runUntil = eng.RunUntil
			}
			for _, h := range topo.Hosts[1:] {
				h := h
				h.sim.At(0, func() {
					h.SendRun(Packet{Dst: 0, FlowID: uint64(h.id)}, messagePayloads(t, uint32(h.id), 4, rows(30, 2048)...))
				})
			}
			sims := map[*Sim]bool{}
			for _, h := range topo.Hosts {
				sims[h.sim] = true
			}
			runUntil(Microsecond)
			if mutant {
				//trimlint:allow determinism every pending wake is rewritten; the order does not matter
				for s := range sims {
					s.eachPending(func(ev *event) {
						if ev.kind == evWake {
							p := ev.port // keeps waking set, so nothing re-arms it
							ev.kind, ev.port, ev.fn = evFunc, nil, func() { p.catchUp() }
							s.nwake--
						}
					})
				}
			}
			for deadline := 11 * Microsecond; deadline < Second; deadline += 10 * Microsecond {
				runUntil(deadline)
			}
			err := topo.Net.Audit()
			switch {
			case !mutant && err != nil:
				t.Errorf("shards %d, wakes intact: Audit() = %v", shards, err)
			case mutant && (err == nil || !strings.Contains(err.Error(), "delivery event of port") ||
				!strings.Contains(err.Error(), "virtual time stepped back")):
				t.Errorf("shards %d, wakes that never re-arm: Audit() = %v, want a delivery fired in the past", shards, err)
			}
		}
	}
}
