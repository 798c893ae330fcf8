package core

import (
	"testing"

	"trimgrad/internal/quant"
	"trimgrad/internal/vecmath"
)

func TestAdaptiveQAIMD(t *testing.T) {
	a := NewAdaptiveQ()
	if a.Q() != 31 {
		t.Fatalf("initial Q = %d", a.Q())
	}
	// Heavy trimming shrinks Q multiplicatively.
	a.Observe(0.5)
	if a.Q() >= 31 {
		t.Fatalf("Q did not shrink: %d", a.Q())
	}
	for i := 0; i < 20; i++ {
		a.Observe(0.5)
	}
	if a.Q() != a.Min {
		t.Fatalf("Q should floor at Min: %d", a.Q())
	}
	// Calm network grows Q back additively.
	for i := 0; i < 20; i++ {
		a.Observe(0)
	}
	if a.Q() != a.Max {
		t.Fatalf("Q should recover to Max: %d", a.Q())
	}
	// Trim exactly at target counts as acceptable over-send.
	before := a.Q()
	a.Observe(a.TargetTrim)
	if a.Q() < before {
		t.Fatal("trim at target should not shrink Q")
	}
}

func TestCapacityTrimmerBudget(t *testing.T) {
	cfg := Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 10}
	enc, _ := NewEncoderWith(WithConfig(cfg))
	grad := gaussianGrad(60, 1<<12)
	msg, _ := enc.Encode(1, 1, grad)

	full := msg.DataBytes()
	// Budget for roughly half the full bytes: the rest must be trimmed,
	// not dropped (trimmed heads are tiny).
	ct := &CapacityTrimmer{BudgetBytes: full / 2}
	out, stats, err := Receive(msg, ct, len(grad), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// Full packets obey the main budget; trimmed headers ride the
	// high-priority budget on top.
	if used := stats.BytesReceived; used > full/2+full/8 {
		t.Fatalf("budgets exceeded: %d > %d", used, full/2+full/8)
	}
	if ct.Trimmed == 0 {
		t.Fatal("expected trimming at half budget")
	}
	if ct.Dropped != 0 {
		t.Fatalf("%d drops despite trimmable packets", ct.Dropped)
	}
	if stats.TrimmedCoords == 0 {
		t.Fatal("no coordinates trimmed")
	}
	if cos := vecmath.CosineSimilarity(grad, out); cos < 0.8 {
		t.Errorf("cosine %v under capacity trimming", cos)
	}
	// Reset clears counters and budget.
	ct.Reset()
	if ct.Trimmed != 0 || ct.Dropped != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if got := ct.Apply(msg.Data[0]); got == nil || len(got) < len(msg.Data[0]) {
		t.Fatal("fresh budget should pass the first packet whole")
	}
}

// TestAdaptiveQClosedLoop: under a fixed capacity, the controller should
// settle at a Q whose full-message size hovers around the budget —
// slightly over-sending so the switch trims a little (§5.3).
func TestAdaptiveQClosedLoop(t *testing.T) {
	grad := gaussianGrad(61, 1<<13)
	ctrl := NewAdaptiveQ()
	// Capacity: enough for about half of the full-precision message.
	cfgFull := Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 11}
	encFull, _ := NewEncoderWith(WithConfig(cfgFull))
	msgFull, _ := encFull.Encode(1, 1, grad)
	budget := msgFull.DataBytes() / 2
	ct := &CapacityTrimmer{BudgetBytes: budget}

	var lastTrim float64
	for round := 0; round < 40; round++ {
		cfg := Config{
			Params:  quant.Params{Scheme: quant.RHT, TailBits: ctrl.Q()},
			RowSize: 1 << 11,
		}
		enc, err := NewEncoderWith(WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := enc.Encode(uint64(round), 1, grad)
		if err != nil {
			t.Fatal(err)
		}
		ct.Reset()
		_, stats, err := Receive(msg, ct, len(grad), WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		lastTrim = stats.TrimFraction()
		ctrl.Observe(lastTrim)
	}
	// Steady state: Q strictly between the extremes, and trimming near
	// the 5% target rather than the ~50% a static full-precision sender
	// would suffer.
	q := ctrl.Q()
	if q <= ctrl.Min || q >= ctrl.Max {
		t.Errorf("controller pinned at extreme Q=%d", q)
	}
	if lastTrim > 0.3 {
		t.Errorf("steady-state trim fraction %v, want near target 0.05", lastTrim)
	}
}
