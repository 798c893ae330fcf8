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
