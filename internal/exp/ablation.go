package exp

import (
	"io"

	"trimgrad/internal/core"
	"trimgrad/internal/ddp"
	"trimgrad/internal/ml"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/scenario"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

// Ablations of the design choices DESIGN.md calls out.

// runAdaptive regenerates the §5.3 discussion: a sender that adapts its
// ahead-of-time tail width Q to congestion feedback vs static senders,
// over a bottleneck whose capacity varies by phase. The static
// full-precision sender gets heavily trimmed in the congested phase; the
// static low-Q sender under-uses the idle phase ("over-compressing and
// sending too few bytes"); the adaptive sender tracks both.
func runAdaptive(w io.Writer, o Options) error {
	dim := 1 << 13
	if o.Quick {
		dim = 1 << 11
	}
	grad := scenario.Gradient(71+o.Seed, dim)
	rowSize := 1 << 11

	// Full-precision message size defines the phase capacities.
	fullCfg := core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: rowSize}
	fullEnc, err := core.NewEncoderWith(core.WithConfig(fullCfg))
	if err != nil {
		return err
	}
	fullMsg, err := fullEnc.Encode(1, 1, grad)
	if err != nil {
		return err
	}
	fullBytes := fullMsg.DataBytes()
	phases := []struct {
		name   string
		budget int
		rounds int
	}{
		{"idle (2x capacity)", fullBytes * 2, 12},
		{"congested (0.4x)", fullBytes * 4 / 10, 12},
		{"recovering (1.2x)", fullBytes * 12 / 10, 12},
	}

	type sender struct {
		name string
		q    func() int
		ctrl *core.AdaptiveQ
		reg  *obs.Registry
	}
	// The adaptive sender's congestion signal flows through a telemetry
	// registry: its decoders report coordinate counters into areg, and the
	// controller derives each round's trim fraction from the counter deltas
	// (AdaptiveQ.Bind/Update) instead of hand-plumbed stats.
	areg := obs.New()
	adaptive := core.NewAdaptiveQ()
	adaptive.Bind(areg)
	senders := []sender{
		{"static Q=31", func() int { return 31 }, nil, nil},
		{"static Q=12", func() int { return 12 }, nil, nil},
		{"adaptive", adaptive.Q, adaptive, areg},
	}

	t := NewTable("§5.3 — Ahead-of-time Q adaptation under varying capacity",
		"phase", "sender", "final_Q", "sent_frac", "trim_frac", "nmse")
	for _, ph := range phases {
		for i := range senders {
			s := &senders[i]
			ct := &core.CapacityTrimmer{BudgetBytes: ph.budget}
			var lastNMSE, lastTrim, lastSent float64
			for r := 0; r < ph.rounds; r++ {
				cfg := core.Config{
					Params:  quant.Params{Scheme: quant.RHT, TailBits: s.q()},
					RowSize: rowSize,
				}
				enc, err := core.NewEncoderWith(core.WithConfig(cfg))
				if err != nil {
					return err
				}
				msg, err := enc.Encode(uint64(r), 1, grad)
				if err != nil {
					return err
				}
				lastSent = float64(msg.DataBytes()) / float64(fullBytes)
				ct.Reset()
				out, stats, err := core.Receive(msg, ct, dim, core.WithConfig(cfg), core.WithRegistry(s.reg))
				if err != nil {
					return err
				}
				lastNMSE = vecmath.NMSE(grad, out)
				lastTrim = stats.TrimFraction()
				if s.ctrl != nil {
					// Receive just emitted this round's coordinate
					// counters into the bound registry; Update turns the
					// delta into the feedback Observe used to get by hand.
					s.ctrl.Update()
				}
			}
			t.Add(ph.name, s.name, s.q(), lastSent, lastTrim, lastNMSE)
		}
	}
	return emit(w, o, t)
}

// runAblationScale contrasts the RHT decode scales: the paper's unbiased
// f = ‖V‖²/‖R(V)‖₁ against the one-shot-MSE-optimal ‖R(V)‖₁/n, both in
// single-decode NMSE and in end-to-end training at 50% trim — showing why
// the paper picks the unbiased one.
func runAblationScale(w io.Writer, o Options) error {
	n := 1 << 12
	row := scenario.Gradient(81+o.Seed, n)
	t := NewTable("Ablation — RHT scale: unbiased vs MMSE",
		"scale", "one_shot_nmse", "mean_of_200_nmse")
	for _, mode := range []struct {
		name string
		m    quant.ScaleMode
	}{{"unbiased f (paper)", quant.ScaleUnbiased}, {"mmse |R|1/n", quant.ScaleMMSE}} {
		c := quant.MustNew(quant.Params{Scheme: quant.RHT, ScaleMode: mode.m})
		enc, err := c.Encode(row, 3)
		if err != nil {
			return err
		}
		one, err := c.Decode(enc, nil, quant.AllTrimmed(n))
		if err != nil {
			return err
		}
		mean := make([]float32, n)
		const trials = 200
		for i := 0; i < trials; i++ {
			e, err := c.Encode(row, xrand.Seed(700, uint64(i)))
			if err != nil {
				return err
			}
			d, err := c.Decode(e, nil, quant.AllTrimmed(n))
			if err != nil {
				return err
			}
			vecmath.Add(mean, d)
		}
		vecmath.Scale(mean, 1.0/trials)
		t.Add(mode.name, vecmath.NMSE(row, one), vecmath.NMSE(row, mean))
	}
	if err := emit(w, o, t); err != nil {
		return err
	}

	// End-to-end: train at 50% trim with each scale.
	dcfg := ml.SyntheticConfig{
		Classes: 30, Dim: 32, Train: 3000, Test: 800,
		Noise: 2.4, Spread: 2.0, Seed: 42,
	}
	epochs := 8
	if o.Quick {
		dcfg.Train, dcfg.Test, epochs = 1000, 300, 3
	}
	train, test := ml.Synthetic(dcfg)
	t2 := NewTable("Ablation — RHT scale in training (50% trim)",
		"scale", "final_top1", "status")
	for _, mode := range []struct {
		name string
		m    quant.ScaleMode
	}{{"unbiased f (paper)", quant.ScaleUnbiased}, {"mmse |R|1/n", quant.ScaleMMSE}} {
		tr, err := ddp.NewTrainer(train, test, ddp.WithConfig(ddp.Config{
			Workers: 2, Epochs: epochs, Seed: 1, LR: 0.06,
			Scheme:   &quant.Params{Scheme: quant.RHT, ScaleMode: mode.m},
			TrimRate: 0.5, RowSize: 1 << 12,
		}), ddp.WithHidden(64))
		if err != nil {
			return err
		}
		res, err := tr.Run()
		if err != nil {
			return err
		}
		status := "ok"
		if res.Diverged {
			status = "diverged"
		}
		t2.Add(mode.name, res.FinalTop1, status)
	}
	return emit(w, o, t2)
}

// runAblationRowSize sweeps the RHT row size (the paper picks 2^15 to fit
// GPU L1): smaller rows rotate faster but pay more per-row metadata and
// give the rotation fewer coordinates to mix; larger rows amortize better.
func runAblationRowSize(w io.Writer, o Options) error {
	sizes := []int{1 << 10, 1 << 12, 1 << 14, 1 << 15, 1 << 16}
	if o.Quick {
		sizes = []int{1 << 10, 1 << 12}
	}
	dim := sizes[len(sizes)-1] * 2
	grad := scenario.Gradient(91+o.Seed, dim)
	t := NewTable("Ablation — RHT row size (paper: 2^15)",
		"row_size", "encode_ms", "meta_packets", "trimmed_nmse")
	for _, rs := range sizes {
		cfg := core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: rs}
		enc, err := core.NewEncoderWith(core.WithConfig(cfg))
		if err != nil {
			return err
		}
		elapsed := stopwatch()
		msg, err := enc.Encode(1, 1, grad)
		if err != nil {
			return err
		}
		encodeMs := float64(elapsed().Microseconds()) / 1000

		out, _, err := core.Receive(msg, core.NewTrimmer(1.0, 5), dim, core.WithConfig(cfg)) // trim everything
		if err != nil {
			return err
		}
		t.Add(rs, encodeMs, len(msg.Meta), vecmath.NMSE(grad, out))
	}
	return emit(w, o, t)
}

// runAblationClip sweeps the SQ/SD clip multiplier (the paper borrows
// L = 2.5σ from TernGrad): small L clips away tail mass (bias), large L
// inflates the ±L decode variance.
func runAblationClip(w io.Writer, o Options) error {
	n := 1 << 13
	if o.Quick {
		n = 1 << 11
	}
	row := scenario.Gradient(101+o.Seed, n)
	t := NewTable("Ablation — clip multiplier L = kσ (TernGrad uses 2.5)",
		"scheme", "k", "trimmed_nmse", "mean_of_100_nmse")
	for _, scheme := range []quant.Scheme{quant.SQ, quant.SD} {
		for _, k := range []float64{1.0, 2.5, 4.0, 8.0} {
			c := quant.MustNew(quant.Params{Scheme: scheme, ClipSigma: k})
			enc, err := c.Encode(row, 3)
			if err != nil {
				return err
			}
			one, err := c.Decode(enc, nil, quant.AllTrimmed(n))
			if err != nil {
				return err
			}
			mean := make([]float32, n)
			const trials = 100
			for i := 0; i < trials; i++ {
				e, err := c.Encode(row, xrand.Seed(800, uint64(i)))
				if err != nil {
					return err
				}
				d, err := c.Decode(e, nil, quant.AllTrimmed(n))
				if err != nil {
					return err
				}
				vecmath.Add(mean, d)
			}
			vecmath.Scale(mean, 1.0/trials)
			t.Add(scheme.String(), k, vecmath.NMSE(row, one), vecmath.NMSE(row, mean))
		}
	}
	return emit(w, o, t)
}

// runRingVsDirect quantifies the per-hop compounding of trim error in
// multi-hop collectives (why the paper cites THC's in-network aggregation
// as complementary): the same total trim fraction hurts the ring all-
// reduce far more than the single-hop direct exchange.
func runRingVsDirect(w io.Writer, o Options) error {
	n := 1 << 12
	row := scenario.Gradient(111+o.Seed, n)
	c := quant.MustNew(quant.Params{Scheme: quant.RHT})
	t := NewTable("Ablation — per-hop error compounding (decode→re-encode chain)",
		"hops", "trim_per_hop", "nmse", "cosine")
	for _, trim := range []float64{0.1, 0.5} {
		cur := append([]float32(nil), row...)
		for hop := 1; hop <= 8; hop++ {
			enc, err := c.Encode(cur, xrand.Seed(900, uint64(hop)))
			if err != nil {
				return err
			}
			avail := quant.NoneTrimmed(n)
			rng := xrand.New(xrand.Seed(901, uint64(hop), uint64(trim*100)))
			for i := range avail {
				if rng.Float64() < trim {
					avail[i] = false
				}
			}
			cur, err = c.Decode(enc, nil, avail)
			if err != nil {
				return err
			}
			if hop == 1 || hop == 2 || hop == 4 || hop == 8 {
				t.Add(hop, trim, vecmath.NMSE(row, cur), vecmath.CosineSimilarity(row, cur))
			}
		}
	}
	return emit(w, o, t)
}

func init() {
	register(Runner{"adaptive", "ahead-of-time Q adaptation vs static, §5.3", runAdaptive})
	register(Runner{"ablation-scale", "RHT decode scale: unbiased vs MMSE", runAblationScale})
	register(Runner{"ablation-rowsize", "RHT row-size sweep (paper: 2^15)", runAblationRowSize})
	register(Runner{"ablation-clip", "SQ/SD clip multiplier sweep (TernGrad: 2.5)", runAblationClip})
	register(Runner{"ring-vs-direct", "per-hop trim-error compounding", runRingVsDirect})
}

// runAblationEF regenerates the error-feedback findings: per-worker EF at
// 50% trim helps the contractive/moderate-variance encodings and cannot
// rescue the non-contractive SQ.
func runAblationEF(w io.Writer, o Options) error {
	dcfg := ml.SyntheticConfig{
		Classes: 100, Dim: 64, Train: 8000, Test: 1000,
		Noise: 12.8, Spread: 8.0, Seed: 42 + o.Seed,
	}
	epochs := 8
	if o.Quick {
		dcfg.Classes, dcfg.Dim = 30, 32
		dcfg.Noise, dcfg.Spread = 6.4, 4.0
		dcfg.Train, dcfg.Test = 2000, 500
		epochs = 3
	}
	train, test := ml.Synthetic(dcfg)
	t := NewTable("Ablation — error feedback at 50% trim",
		"scheme", "ef", "final_top1", "status")
	for _, s := range []quant.Scheme{quant.Sign, quant.SQ, quant.SD, quant.RHT} {
		for _, ef := range []bool{false, true} {
			tr, err := ddp.NewTrainer(train, test, ddp.WithConfig(ddp.Config{
				Workers: 2, Epochs: epochs, Seed: 1 + o.Seed, LR: 0.07,
				Scheme: &quant.Params{Scheme: s}, TrimRate: 0.5,
				RowSize: 1 << 15, ErrorFeedback: ef,
			}), ddp.WithHidden(128))
			if err != nil {
				return err
			}
			res, err := tr.Run()
			if err != nil {
				return err
			}
			status := "ok"
			if res.Diverged {
				status = "diverged"
			}
			t.Add(s.String(), ef, res.FinalTop1, status)
		}
	}
	return emit(w, o, t)
}

func init() {
	register(Runner{"ablation-ef", "error feedback per scheme at 50% trim", runAblationEF})
}
