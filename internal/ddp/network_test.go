package ddp

import (
	"strings"
	"testing"

	"trimgrad/internal/collective"
	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
)

// TestNetworkedTrainsCleanFabric: closed-loop training on an uncongested
// fabric should converge like the injector trainer at trim 0.
func TestNetworkedTrainsCleanFabric(t *testing.T) {
	train, test := testData()
	nt, err := NewNetTrainer(train, test,
		WithConfig(Config{Workers: 2, Epochs: 6, Seed: 1, RowSize: 1 << 11,
			Scheme: sp(quant.RHT, 1)}),
		WithFabric(FabricConfig{
			Queue: netsim.QueueConfig{CapacityBytes: 8 << 20, Mode: netsim.TrimOverflow},
			Mode:  collective.Trimmable,
		}),
		WithHidden(32))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("diverged on a clean fabric")
	}
	if res.FinalTop1 < 0.85 {
		t.Fatalf("top1 = %v", res.FinalTop1)
	}
	last := res.Points[len(res.Points)-1]
	if last.TrimFrac != 0 {
		t.Errorf("clean fabric produced trimming: %v", last.TrimFrac)
	}
	if res.WallTotal <= 0 {
		t.Fatal("no wall clock")
	}
}

// TestNetworkedClosedLoopTrims: a shallow-buffer trimming fabric under
// the all-to-all incast must produce a *nonzero, emergent* trim fraction
// and still learn.
func TestNetworkedClosedLoopTrims(t *testing.T) {
	train, test := testData()
	nt, err := NewNetTrainer(train, test,
		WithConfig(Config{Workers: 4, Epochs: 5, Seed: 1, RowSize: 1 << 11,
			Scheme: sp(quant.RHT, 1)}),
		WithFabric(FabricConfig{
			Link: netsim.LinkConfig{Bandwidth: netsim.Mbps(500), Delay: 5 * netsim.Microsecond},
			Queue: netsim.QueueConfig{
				CapacityBytes: 8 << 10, HighCapacityBytes: 1 << 20,
				Mode: netsim.TrimOverflow,
			},
			Mode: collective.Trimmable,
		}),
		WithHidden(32))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("diverged")
	}
	last := res.Points[len(res.Points)-1]
	if last.TrimFrac == 0 {
		t.Fatal("expected emergent trimming from queue dynamics")
	}
	if res.FinalTop1 < 0.7 {
		t.Errorf("top1 = %v with %.1f%% closed-loop trimming", res.FinalTop1, 100*last.TrimFrac)
	}
}

// TestNetworkedBaselineSlowerUnderCongestion: on the same shallow fabric,
// the reliable baseline (DropTail) pays retransmission time — its
// measured communication wall clock must exceed the trimming run's.
func TestNetworkedBaselineSlowerUnderCongestion(t *testing.T) {
	train, test := testData()
	run := func(mode collective.Mode, qmode netsim.QueueMode) *Result {
		nt, err := NewNetTrainer(train, test,
			WithConfig(Config{Workers: 4, Epochs: 2, Seed: 1, RowSize: 1 << 11,
				Scheme: sp(quant.RHT, 1)}),
			WithFabric(FabricConfig{
				Link: netsim.LinkConfig{Bandwidth: netsim.Mbps(500), Delay: 5 * netsim.Microsecond},
				Queue: netsim.QueueConfig{
					CapacityBytes: 8 << 10, HighCapacityBytes: 1 << 20,
					Mode: qmode,
				},
				Mode:         mode,
				RoundTimeout: 30 * netsim.Second,
			}),
			WithHidden(32))
		if err != nil {
			t.Fatal(err)
		}
		res, err := nt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	trim := run(collective.Trimmable, netsim.TrimOverflow)
	rel := run(collective.Reliable, netsim.DropTail)
	if trim.WallTotal >= rel.WallTotal {
		t.Errorf("trim wall %v should beat reliable-under-drop wall %v",
			trim.WallTotal, rel.WallTotal)
	}
}

func TestNetworkedValidation(t *testing.T) {
	train, test := testData()
	if _, err := NewNetTrainer(train, test,
		WithConfig(Config{Workers: 2}), WithFabric(FabricConfig{}), WithHidden(8)); err == nil {
		t.Error("baseline (nil scheme) should be rejected")
	}
}

// TestTrainerRefusesUnreadConfig: what an exchange never reads is an
// error, naming it: the injection settings for NewNetTrainer, WithFabric
// for NewTrainer, and for NewTrainer the rate of the arm it is not
// running (DropRate with a Scheme; TrimRate, Injector and ErrorFeedback
// without one).
func TestTrainerRefusesUnreadConfig(t *testing.T) {
	train, test := testData()
	rht := sp(quant.RHT, 1)
	for _, tc := range []struct {
		field string
		build func() (*Trainer, error)
	}{
		{"TrimRate", func() (*Trainer, error) {
			return NewNetTrainer(train, test, WithConfig(Config{Workers: 2, Scheme: rht, TrimRate: 0.1}), WithHidden(8))
		}},
		{"DropRate", func() (*Trainer, error) {
			return NewNetTrainer(train, test, WithConfig(Config{Workers: 2, Scheme: rht, DropRate: 0.01}), WithHidden(8))
		}},
		{"Injector", func() (*Trainer, error) {
			return NewNetTrainer(train, test,
				WithConfig(Config{Workers: 2, Scheme: rht, Injector: core.NewTrimmer(0.1, 1)}), WithHidden(8))
		}},
		{"ErrorFeedback", func() (*Trainer, error) {
			return NewNetTrainer(train, test, WithConfig(Config{Workers: 2, Scheme: rht, ErrorFeedback: true}), WithHidden(8))
		}},
		{"WithFabric", func() (*Trainer, error) {
			return NewTrainer(train, test, WithConfig(Config{Workers: 2, Scheme: rht}), WithFabric(FabricConfig{}), WithHidden(8))
		}},
		{"DropRate", func() (*Trainer, error) {
			return NewTrainer(train, test, WithConfig(Config{Workers: 2, Scheme: rht, DropRate: 0.01}), WithHidden(8))
		}},
		{"TrimRate", func() (*Trainer, error) {
			return NewTrainer(train, test, WithConfig(Config{Workers: 2, TrimRate: 0.3}), WithHidden(8))
		}},
		{"Injector", func() (*Trainer, error) {
			return NewTrainer(train, test, WithConfig(Config{Workers: 2, Injector: core.NewTrimmer(0.1, 1)}), WithHidden(8))
		}},
		{"ErrorFeedback", func() (*Trainer, error) {
			return NewTrainer(train, test, WithConfig(Config{Workers: 2, ErrorFeedback: true}), WithHidden(8))
		}},
	} {
		if _, err := tc.build(); err == nil || !strings.Contains(err.Error(), "ddp: "+tc.field+" ") {
			t.Errorf("%s: err = %v, want one naming it", tc.field, err)
		}
	}
}

// TestNetworkedFabricValidation: a fabric no builder accepts is refused by
// NewNetTrainer with netsim.FabricSpec's own diagnosis (or, for a fat tree
// too small for the job, ddp's sizing arithmetic).
func TestNetworkedFabricValidation(t *testing.T) {
	train, test := testData()
	dead := netsim.LinkConfig{Bandwidth: -1}
	for name, tc := range map[string]struct {
		fabric FabricConfig
		want   string // "": accepted
	}{
		"dumbbell":          {FabricConfig{Topology: "dumbbell"}, ""},
		"ring":              {FabricConfig{Topology: "ring"}, ""},
		"unknown":           {FabricConfig{Topology: "torus"}, `netsim: unknown topology "torus"`},
		"leafspine":         {FabricConfig{Topology: "leafspine"}, "netsim: leaf–spine needs ≥1 leaves"},
		"no k":              {FabricConfig{Topology: "fattree"}, "netsim: fat tree needs even k ≥ 2, got 0"},
		"odd k":             {FabricConfig{Topology: "fattree", FatTreeK: 5}, "even k"},
		"small k":           {FabricConfig{Topology: "fattree", FatTreeK: 2}, "holds 2 hosts, need 4"},
		"fattree dead link": {FabricConfig{Topology: "fattree", Link: dead}, "bandwidth"},
		"star dead link":    {FabricConfig{Topology: "star", Link: dead}, "bandwidth"},
	} {
		_, err := NewNetTrainer(train, test,
			WithConfig(Config{Workers: 4, Scheme: sp(quant.RHT, 1)}), WithFabric(tc.fabric), WithHidden(8))
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
}

// TestFabricExchangeAudits: a round on a fabric that breaks one of
// Network.Audit's invariants — here a pooled record handed out and never
// sent — fails with Audit's report, naming the round.
func TestFabricExchangeAudits(t *testing.T) {
	fabric := FabricConfig{Mode: collective.Trimmable}.withDefaults()
	topo, err := netsim.FabricSpec{Kind: "star", N: 2, Link: fabric.Link, Queue: fabric.Queue}.Build(netsim.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	workers, err := collective.Bind(topo.Hosts, transport.Config{},
		collective.WithConfig(core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 10}),
		collective.WithMode(fabric.Mode))
	if err != nil {
		t.Fatal(err)
	}
	exchange := fabricExchange(topo.Net, workers, fabric, 0)
	grads := [][]float32{make([]float32, 1<<10), make([]float32, 1<<10)}
	if _, err := exchange(1, 1, grads); err != nil {
		t.Fatalf("round 1 on a sound fabric: %v", err)
	}
	topo.Net.Sim.NewPacket()
	_, err = exchange(1, 100, grads)
	if want := "ddp: round 2 (epoch 1): netsim: audit: "; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("round 2 after a leaked record: err = %v, want one starting %q", err, want)
	}
}
