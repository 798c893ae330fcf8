package ddp

import (
	"math"
	"strings"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/ml"
	"trimgrad/internal/quant"
)

// testData returns a small, easy dataset shared by the tests.
func testData() (*ml.Dataset, *ml.Dataset) {
	return ml.Synthetic(ml.SyntheticConfig{
		Classes: 10, Dim: 16, Train: 1200, Test: 400,
		Noise: 0.35, Spread: 1.0, Seed: 42,
	})
}

func sp(s quant.Scheme, p int) *quant.Params { return &quant.Params{Scheme: s, P: p} }

func runCfg(t *testing.T, cfg Config) *Result {
	t.Helper()
	train, test := testData()
	tr, err := NewTrainer(train, test, WithConfig(cfg), WithHidden(32))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBaselineConverges(t *testing.T) {
	res := runCfg(t, Config{Workers: 2, Epochs: 8, Seed: 1})
	if res.Diverged {
		t.Fatal("baseline diverged")
	}
	if res.FinalTop1 < 0.85 {
		t.Fatalf("baseline top1 = %v", res.FinalTop1)
	}
	if res.WallTotal <= 0 {
		t.Fatal("no wall clock accumulated")
	}
}

func TestEncodedUntrimmedMatchesBaselineQuality(t *testing.T) {
	base := runCfg(t, Config{Workers: 2, Epochs: 6, Seed: 1})
	for _, s := range []quant.Scheme{quant.Sign, quant.RHT} {
		res := runCfg(t, Config{Workers: 2, Epochs: 6, Seed: 1, Scheme: sp(s, 1), TrimRate: 0})
		if res.Diverged {
			t.Fatalf("%v diverged with no trimming", s)
		}
		if res.FinalTop1 < base.FinalTop1-0.05 {
			t.Errorf("%v top1 %v far below baseline %v despite exact tails",
				s, res.FinalTop1, base.FinalTop1)
		}
		// Encoded rounds are slower in wall clock (Fig. 5).
		if res.WallTotal <= base.WallTotal {
			t.Errorf("%v wall %v should exceed baseline %v", s, res.WallTotal, base.WallTotal)
		}
	}
}

func TestModerateTrimStillLearns(t *testing.T) {
	for _, s := range []quant.Scheme{quant.SQ, quant.SD, quant.RHT} {
		res := runCfg(t, Config{
			Workers: 2, Epochs: 8, Seed: 1, Scheme: sp(s, 1), TrimRate: 0.10,
		})
		if res.Diverged {
			t.Fatalf("%v diverged at 10%% trim", s)
		}
		if res.FinalTop1 < 0.7 {
			t.Errorf("%v top1 = %v at 10%% trim", s, res.FinalTop1)
		}
		// The injector should have actually trimmed ~10% of coordinates.
		last := res.Points[len(res.Points)-1]
		if last.TrimFrac < 0.05 || last.TrimFrac > 0.2 {
			t.Errorf("%v observed trim fraction %v, want ≈0.10", s, last.TrimFrac)
		}
	}
}

// TestRHTMostRobustAtHeavyTrim reproduces Figure 3's key contrast at 50%
// trimming on a hard task trained near the stability edge: the RHT
// encoding keeps converging (it is the only one the paper found to reach
// baseline accuracy at 50%), while the scalar stochastic schemes — whose
// trimmed decode injects ±2.5σ noise per coordinate — diverge or end far
// below it. (Sign-magnitude does NOT diverge in this substrate, unlike the
// paper's VGG-19 result; see EXPERIMENTS.md for the analysis of that
// discrepancy.)
func TestRHTMostRobustAtHeavyTrim(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("heavy convergence calibration; quick ddp tests cover these code paths under -race")
	}
	if testing.Short() {
		t.Skip("heavy convergence calibration")
	}
	train, test := ml.Synthetic(ml.SyntheticConfig{
		Classes: 100, Dim: 64, Train: 8000, Test: 1000,
		Noise: 12.8, Spread: 8.0, Seed: 42,
	})
	run := func(s quant.Scheme) *Result {
		cfg := Config{
			Workers: 2, Epochs: 8, Seed: 1, LR: 0.07,
			Scheme: sp(s, 1), TrimRate: 0.5, RowSize: 1 << 15,
		}
		tr, err := NewTrainer(train, test, WithConfig(cfg), WithHidden(128))
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rht := run(quant.RHT)
	if rht.Diverged {
		t.Fatal("RHT diverged at 50% trim")
	}
	if rht.FinalTop1 < 0.35 {
		t.Errorf("RHT top1 = %v at 50%% trim", rht.FinalTop1)
	}
	sq := run(quant.SQ)
	if !sq.Diverged && sq.FinalTop1 > rht.FinalTop1-0.05 {
		t.Errorf("SQ (top1 %v, diverged=%v) should fare far worse than RHT (%v) at 50%% trim",
			sq.FinalTop1, sq.Diverged, rht.FinalTop1)
	}
	sd := run(quant.SD)
	if !sd.Diverged && sd.FinalTop1 > rht.FinalTop1+0.02 {
		t.Errorf("SD (top1 %v) should not beat RHT (%v) at 50%% trim",
			sd.FinalTop1, rht.FinalTop1)
	}
}

func TestBaselineDropSlowdown(t *testing.T) {
	cm := DefaultCostModel()
	clean := cm.RoundTime(nil, 0)
	knee := cm.RoundTime(nil, 0.002)
	if knee != clean {
		t.Errorf("≤0.2%% drops should be free: %v vs %v", knee, clean)
	}
	lossy := cm.RoundTime(nil, 0.015)
	if ratio := lossy / clean; ratio < 5 || ratio > 10 {
		t.Errorf("1.5%% drops slowdown = %.1fx, paper says 5-10x", ratio)
	}
	// Encoded schemes don't pay the drop penalty (trimming, not dropping).
	enc := cm.RoundTime(sp(quant.SQ, 1), 0.015)
	if enc > 2*clean {
		t.Errorf("encoded round %v should not inflate with drops", enc)
	}
	// RHT is ~18% slower than scalar in encode time (Fig. 5).
	scalarEnc := cm.EncodeTime(sp(quant.SQ, 1))
	rhtEnc := cm.EncodeTime(sp(quant.RHT, 1))
	if r := rhtEnc / scalarEnc; math.Abs(r-1.18) > 1e-9 {
		t.Errorf("RHT/scalar encode ratio = %v", r)
	}
	if cm.EncodeTime(nil) != 0 {
		t.Error("baseline has no encode cost")
	}
}

func TestBaselineTimesOutAtHighDrops(t *testing.T) {
	res := runCfg(t, Config{Workers: 2, Epochs: 4, Seed: 1, DropRate: 0.10})
	if !res.TimedOut {
		t.Fatal("baseline at 10% drops should time out (§4.4)")
	}
}

func TestTimeToAccuracy(t *testing.T) {
	res := runCfg(t, Config{Workers: 2, Epochs: 8, Seed: 1})
	tta, ok := res.TimeToAccuracy(0.5)
	if !ok {
		t.Fatal("never reached 50%")
	}
	if tta <= 0 || tta > res.WallTotal {
		t.Fatalf("tta = %v, wall = %v", tta, res.WallTotal)
	}
	if _, ok := res.TimeToAccuracy(2.0); ok {
		t.Fatal("cannot reach 200%")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runCfg(t, Config{Workers: 2, Epochs: 3, Seed: 9, Scheme: sp(quant.RHT, 1), TrimRate: 0.2})
	b := runCfg(t, Config{Workers: 2, Epochs: 3, Seed: 9, Scheme: sp(quant.RHT, 1), TrimRate: 0.2})
	if len(a.Points) != len(b.Points) {
		t.Fatal("point counts differ")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("runs diverged at point %d: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}

func TestTranscriptReplayThroughTrainer(t *testing.T) {
	// Record a short run's trim decisions, then replay: identical points.
	train, test := testData()
	rec := core.NewRecorder(core.NewTrimmer(0.3, 77))
	cfgA := Config{Workers: 2, Epochs: 2, Seed: 5, Scheme: sp(quant.RHT, 1), Injector: rec}
	trA, err := NewTrainer(train, test, WithConfig(cfgA), WithHidden(32))
	if err != nil {
		t.Fatal(err)
	}
	resA, err := trA.Run()
	if err != nil {
		t.Fatal(err)
	}

	cfgB := cfgA
	cfgB.Injector = core.NewPlayer(&rec.Transcript)
	trB, err := NewTrainer(train, test, WithConfig(cfgB), WithHidden(32))
	if err != nil {
		t.Fatal(err)
	}
	resB, err := trB.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range resA.Points {
		if resA.Points[i] != resB.Points[i] {
			t.Fatalf("replay diverged: %+v vs %+v", resA.Points[i], resB.Points[i])
		}
	}
	// Final models must be bit-identical.
	pa, pb := trA.Model().Params(), trB.Model().Params()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("model weights differ at %d", i)
		}
	}
}

func TestMultiWorkerScaling(t *testing.T) {
	res := runCfg(t, Config{Workers: 4, Epochs: 6, Seed: 2, Scheme: sp(quant.SD, 1), TrimRate: 0.05})
	if res.Diverged || res.FinalTop1 < 0.7 {
		t.Fatalf("4-worker run: %+v", res)
	}
}

func TestResultString(t *testing.T) {
	res := runCfg(t, Config{Workers: 2, Epochs: 2, Seed: 1})
	if s := res.String(); s == "" {
		t.Fatal("empty summary")
	}
}

func TestEmptyDatasetRejected(t *testing.T) {
	if _, err := NewTrainer(&ml.Dataset{Classes: 2, Dim: 2}, &ml.Dataset{}, WithConfig(Config{}), WithHidden(8)); err == nil {
		t.Fatal("empty training set should fail")
	}
}

// TestConfigValidated: both constructors refuse a Config no run can mean,
// naming the field, and still read zero as "use the default". Rates in
// range are NewNetTrainer's to refuse too (TestNetTrainerRefusesUnreadConfig).
func TestConfigValidated(t *testing.T) {
	train, test := testData()
	// The rows where NewNetTrainer refuses a field NewTrainer accepts.
	netWant := map[string]string{"rates at their bounds": "TrimRate"}
	ctors := []struct {
		name string
		new  func(Config) error
	}{
		{"NewTrainer", func(cfg Config) error {
			_, err := NewTrainer(train, test, WithConfig(cfg), WithHidden(8))
			return err
		}},
		{"NewNetTrainer", func(cfg Config) error {
			_, err := NewNetTrainer(train, test, WithConfig(cfg), WithHidden(8))
			return err
		}},
	}
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want string // the refused field; "" means accepted
	}{
		{"zero value", func(*Config) {}, ""},
		{"rates at their bounds", func(c *Config) { c.TrimRate, c.DropRate = 1, 0 }, ""},
		{"TrimRate above 1", func(c *Config) { c.TrimRate = 2 }, "TrimRate"},
		{"TrimRate negative", func(c *Config) { c.TrimRate = -1 }, "TrimRate"},
		{"TrimRate NaN", func(c *Config) { c.TrimRate = math.NaN() }, "TrimRate"},
		{"DropRate above 1", func(c *Config) { c.DropRate = 7 }, "DropRate"},
		{"LR negative", func(c *Config) { c.LR = -0.1 }, "LR"},
		{"LR infinite", func(c *Config) { c.LR = math.Inf(1) }, "LR"},
		{"Momentum NaN", func(c *Config) { c.Momentum = math.NaN() }, "Momentum"},
		{"Gamma negative", func(c *Config) { c.Gamma = -0.5 }, "Gamma"},
		{"Workers negative", func(c *Config) { c.Workers = -1 }, "Workers"},
		{"Workers above the sample count", func(c *Config) { c.Workers = train.Len() + 1 }, "Workers"},
		{"Epochs negative", func(c *Config) { c.Epochs = -3 }, "Epochs"},
		{"Batch negative", func(c *Config) { c.Batch = -64 }, "Batch"},
		{"StepSize negative", func(c *Config) { c.StepSize = -1 }, "StepSize"},
		{"EvalEvery negative", func(c *Config) { c.EvalEvery = -1 }, "EvalEvery"},
	} {
		for _, ctor := range ctors {
			t.Run(ctor.name+"/"+tc.name, func(t *testing.T) {
				cfg := Config{Scheme: sp(quant.RHT, 0)}
				tc.set(&cfg)
				err := ctor.new(cfg)
				want := tc.want
				if w, ok := netWant[tc.name]; ok && ctor.name == "NewNetTrainer" {
					want = w
				}
				switch {
				case want == "" && err != nil:
					t.Errorf("refused: %v", err)
				case want != "" && (err == nil || !strings.Contains(err.Error(), "ddp: "+want+" ")):
					t.Errorf("error %v, want one naming %s", err, want)
				}
			})
		}
	}
}
