package exp

import (
	"fmt"
	"io"

	"trimgrad/internal/ddp"
	"trimgrad/internal/fwht"
	"trimgrad/internal/ml"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/xrand"
)

// benchSetup is the shared training benchmark standing in for the paper's
// VGG-19/CIFAR-100 setup: a 100-class Gaussian-mixture task with
// heterogeneous input scaling (so layer gradient scales differ, as in
// deep CNNs) trained near the stability edge, where encoding error
// visibly separates the schemes.
type benchSetup struct {
	train, test *ml.Dataset
	hidden      []int
	epochs      int
	lr          float64
	rowSize     int
	workers     int
}

func newBenchSetup(o Options) benchSetup {
	cfg := ml.SyntheticConfig{
		Classes: 100, Dim: 64, Train: 8000, Test: 2000,
		Noise: 12.8, Spread: 8.0, Seed: 42 + o.Seed,
	}
	s := benchSetup{
		hidden:  []int{128},
		epochs:  12,
		lr:      0.07,
		rowSize: 1 << 15,
		workers: 2,
	}
	if o.Quick {
		cfg.Train, cfg.Test = 2000, 500
		cfg.Classes, cfg.Dim = 30, 32
		cfg.Noise, cfg.Spread = 6.4, 4.0
		s.hidden = []int{64}
		s.epochs = 4
	}
	s.train, s.test = ml.Synthetic(cfg)
	return s
}

// run executes one configuration on the shared setup.
func (s benchSetup) run(o Options, scheme *quant.Params, trimRate, dropRate float64) (*ddp.Result, error) {
	cfg := ddp.Config{
		Workers:  s.workers,
		Scheme:   scheme,
		TrimRate: trimRate,
		DropRate: dropRate,
		RowSize:  s.rowSize,
		Epochs:   s.epochs,
		LR:       s.lr,
		Seed:     1 + o.Seed,
	}
	tr, err := ddp.NewTrainer(s.train, s.test, ddp.WithConfig(cfg), ddp.WithHidden(s.hidden...))
	if err != nil {
		return nil, err
	}
	return tr.Run()
}

// figSchemes are the encodings Figures 3–5 compare.
var figSchemes = []struct {
	name   string
	params *quant.Params
}{
	{"baseline", nil},
	{"sign", &quant.Params{Scheme: quant.Sign}},
	{"sq", &quant.Params{Scheme: quant.SQ}},
	{"sd", &quant.Params{Scheme: quant.SD}},
	{"rht", &quant.Params{Scheme: quant.RHT}},
}

func fig3TrimRates(o Options) []float64 {
	if o.Quick {
		return []float64{0.01, 0.5}
	}
	return []float64{0.001, 0.01, 0.02, 0.1, 0.5}
}

// runFig3 regenerates Figure 3: top-1 accuracy as a function of simulated
// wall-clock time for each (trim rate, scheme) pair.
func runFig3(w io.Writer, o Options) error {
	s := newBenchSetup(o)
	t := NewTable("Figure 3 — Time To Accuracy (top-1 vs wall clock)",
		"trim_rate", "scheme", "epoch", "wall_s", "top1", "top5", "status")
	for _, rate := range fig3TrimRates(o) {
		for _, sc := range figSchemes {
			trim, drop := rate, 0.0
			if sc.params == nil {
				// The baseline cannot be trimmed; congestion hits it as
				// retransmitted drops instead (§4.4).
				trim, drop = 0, rate
			}
			res, err := s.run(o, sc.params, trim, drop)
			if err != nil {
				return err
			}
			status := "ok"
			if res.TimedOut {
				status = "timeout"
			} else if res.Diverged {
				status = "diverged"
			}
			if len(res.Points) == 0 {
				t.Add(rate, sc.name, 0, res.WallTotal, 0.0, 0.0, status)
			}
			for _, p := range res.Points {
				t.Add(rate, sc.name, p.Epoch, p.Wall, p.Top1, p.Top5, status)
			}
		}
	}
	return emit(w, o, t)
}

func fig4TrimRates(o Options) []float64 {
	if o.Quick {
		return []float64{0.01, 0.2}
	}
	return []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5}
}

// runFig4 regenerates Figure 4: time to reach the uncompressed baseline's
// accuracy, as a function of trim rate, per scheme; the gray reference
// line is the no-congestion baseline's own time.
func runFig4(w io.Writer, o Options) error {
	s := newBenchSetup(o)
	base, err := s.run(o, nil, 0, 0)
	if err != nil {
		return err
	}
	// Target: 95% of the baseline's final accuracy, which tolerates the
	// run-to-run noise of the small substrate while preserving the
	// crossover structure.
	target := 0.95 * base.FinalTop1
	baseTTA, _ := base.TimeToAccuracy(target)
	t := NewTable(fmt.Sprintf(
		"Figure 4 — Time to baseline accuracy (target top-1 = %.3f; baseline reaches it at %.1f s)",
		target, baseTTA),
		"trim_rate", "scheme", "tta_s", "reached", "final_top1", "status")
	for _, rate := range fig4TrimRates(o) {
		for _, sc := range figSchemes[1:] { // encodings only
			res, err := s.run(o, sc.params, rate, 0)
			if err != nil {
				return err
			}
			tta, ok := res.TimeToAccuracy(target)
			status := "ok"
			if res.Diverged {
				status = "diverged"
			}
			ttaCell := "-"
			if ok {
				ttaCell = formatFloat(tta)
			}
			t.Add(rate, sc.name, ttaCell, ok, res.FinalTop1, status)
		}
	}
	return emit(w, o, t)
}

// runFig5 regenerates Figure 5: per-round time breakdown (compute /
// encode / communicate) per scheme. The breakdown is a span query: a
// small training run per scheme records ddp.round.{compute,encode,comm}
// spans into one registry, and each table cell is the per-round average
// of those spans — the figure is derived from the telemetry the trainer
// actually emits, not recomputed from the cost model by hand. A measured
// companion table adds real per-coordinate encode/decode costs from this
// machine so the relative ordering (RHT ≈ 1.18× scalar) is verified, not
// assumed.
func runFig5(w io.Writer, o Options) error {
	r := o.Obs
	if r == nil {
		r = obs.New()
	}
	train, test := ml.Synthetic(ml.SyntheticConfig{
		Classes: 4, Dim: 16, Train: 256, Test: 64,
		Noise: 1.0, Spread: 2.0, Seed: 42 + o.Seed,
	})
	for _, sc := range figSchemes {
		tr, err := ddp.NewTrainer(train, test,
			ddp.WithConfig(ddp.Config{
				Workers: 2, Epochs: 1, Seed: 1 + o.Seed, LR: 0.05,
				Scheme: sc.params, RowSize: 1 << 12,
			}),
			ddp.WithHidden(8),
			ddp.WithRegistry(r))
		if err != nil {
			return err
		}
		if _, err := tr.Run(); err != nil {
			return err
		}
	}
	snap := r.Snapshot()
	t := NewTable("Figure 5 — Per-round time breakdown (simulated seconds, from ddp.round.* spans)",
		"scheme", "compute_s", "encode_s", "comm_s", "round_s", "vs_baseline")
	var baseRound float64
	for _, sc := range figSchemes {
		attr := obs.KV{K: "scheme", V: sc.name}
		perRound := func(span string) float64 {
			total, n := snap.SpanSum(span, attr)
			if n == 0 {
				return 0
			}
			return float64(total) / float64(n) / 1e9
		}
		compute := perRound("ddp.round.compute")
		encode := perRound("ddp.round.encode")
		comm := perRound("ddp.round.comm")
		round := compute + encode + comm
		if sc.name == "baseline" {
			baseRound = round
		}
		rel := "-"
		if baseRound > 0 {
			rel = fmt.Sprintf("%.2fx", round/baseRound)
		}
		t.Add(sc.name, compute, encode, comm, round, rel)
	}
	if err := emit(w, o, t); err != nil {
		return err
	}

	// Measured encode+decode cost on real rows (this machine, this Go
	// implementation): verifies the model's relative ordering.
	n := fwht.DefaultRowSize
	if o.Quick {
		n = 1 << 12
	}
	rng := xrand.New(7)
	row := make([]float32, n)
	for i := range row {
		row[i] = float32(rng.NormFloat64() * 0.05)
	}
	m := NewTable("Figure 5 (companion) — Measured encode+decode cost per coordinate",
		"scheme", "ns_per_coord", "vs_sq")
	var sqNs float64
	for _, sc := range figSchemes[1:] {
		codec := quant.MustNew(*sc.params)
		iters := 10
		elapsed := stopwatch()
		for i := 0; i < iters; i++ {
			enc, err := codec.Encode(row, uint64(i))
			if err != nil {
				return err
			}
			if _, err := codec.Decode(enc, nil, quant.AllTrimmed(n)); err != nil {
				return err
			}
		}
		ns := float64(elapsed().Nanoseconds()) / float64(iters*n)
		if sc.name == "sq" {
			sqNs = ns
		}
		rel := "-"
		if sqNs > 0 {
			rel = fmt.Sprintf("%.2fx", ns/sqNs)
		}
		m.Add(sc.name, ns, rel)
	}
	return emit(w, o, m)
}

func init() {
	register(Runner{"fig3", "TTA curves per scheme × trim rate (E1)", runFig3})
	register(Runner{"fig4", "time-to-baseline-accuracy vs trim rate (E2)", runFig4})
	register(Runner{"fig5", "per-round time breakdown + measured encode cost (E3)", runFig5})
}
