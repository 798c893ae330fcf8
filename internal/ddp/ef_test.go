package ddp

import (
	"testing"

	"trimgrad/internal/ml"
	"trimgrad/internal/quant"
)

// TestErrorFeedbackAtHeavyTrim documents what EF does and does not do at
// 50% trim on the hard task: it improves the moderate-variance unbiased
// RHT encoding, but it can NOT rescue SQ — EF theory requires the
// compressor to be contractive, and SQ's fully-trimmed ±2.5σ decode has
// NMSE ≈ 5, so feeding its residual back compounds the error.
func TestErrorFeedbackAtHeavyTrim(t *testing.T) {
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
	run := func(s quant.Scheme, ef bool) *Result {
		cfg := Config{
			Workers: 2, Epochs: 8, Seed: 1, LR: 0.07,
			Scheme: sp(s, 1), TrimRate: 0.5, RowSize: 1 << 15,
			ErrorFeedback: ef,
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
	rht := run(quant.RHT, false)
	rhtEF := run(quant.RHT, true)
	if rhtEF.Diverged {
		t.Fatal("RHT+EF diverged")
	}
	if rhtEF.FinalTop1 < rht.FinalTop1-0.02 {
		t.Errorf("EF should not hurt RHT: %v vs %v", rhtEF.FinalTop1, rht.FinalTop1)
	}
	sqEF := run(quant.SQ, true)
	if !sqEF.Diverged && sqEF.FinalTop1 > rhtEF.FinalTop1 {
		t.Errorf("EF unexpectedly made non-contractive SQ (%v) beat RHT (%v)",
			sqEF.FinalTop1, rhtEF.FinalTop1)
	}
}

// TestErrorFeedbackNeutralWhenUntrimmed: with no trimming, EF residuals
// are (near-)zero and results match the plain run closely.
func TestErrorFeedbackNeutralWhenUntrimmed(t *testing.T) {
	train, test := testData()
	run := func(ef bool) *Result {
		cfg := Config{
			Workers: 2, Epochs: 4, Seed: 3,
			Scheme: sp(quant.Sign, 1), TrimRate: 0,
			ErrorFeedback: ef,
		}
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
	a, b := run(false), run(true)
	if d := a.FinalTop1 - b.FinalTop1; d > 0.03 || d < -0.03 {
		t.Errorf("EF changed untrimmed accuracy: %v vs %v", a.FinalTop1, b.FinalTop1)
	}
}
