package exp

import (
	"fmt"
	"io"

	"trimgrad/internal/core"
	"trimgrad/internal/ddp"
	"trimgrad/internal/lowrank"
	"trimgrad/internal/ml"
	"trimgrad/internal/quant"
	"trimgrad/internal/scenario"
	"trimgrad/internal/sparse"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

// runWireMath regenerates the §2 arithmetic (E5): MTU budget, coordinates
// per packet, trimmed packet size, and compression ratio — both with the
// paper's idealized accounting (42-byte network header only) and with this
// implementation's real 40-byte trimgrad header.
func runWireMath(w io.Writer, o Options) error {
	t := NewTable("§2 — Trimmable packet arithmetic (E5)",
		"accounting", "coords", "full_frame_B", "trimmed_frame_B", "compression")
	// Paper's idealized numbers: payload = MTU − 42; 32-bit coords; P=1.
	idealCoords := (wire.MTU - wire.NetOverhead) * 8 / 32
	idealTrimmed := wire.NetOverhead + (idealCoords+7)/8
	t.Add("paper (42B hdr only)", idealCoords, wire.MTU, idealTrimmed,
		fmt.Sprintf("%.1f%%", 100*(1-float64(idealTrimmed)/float64(wire.MTU))))
	// This implementation.
	coords := wire.CoordsPerPacket(1, 31)
	h := wire.Header{Count: uint16(coords), P: 1, Q: 31}
	full := wire.NetOverhead + h.FullSize()
	trimmed := wire.NetOverhead + h.TrimmedSize()
	t.Add("trimgrad wire format", coords, full, trimmed,
		fmt.Sprintf("%.1f%%", 100*(1-float64(trimmed)/float64(full))))
	// Multi-level examples from §5.1: trim 32-bit floats to 8 or 1 bits.
	for _, p := range []int{8, 1} {
		c := wire.CoordsPerPacket(p, 32-p)
		hh := wire.Header{Count: uint16(c), P: uint8(p), Q: uint8(32 - p)}
		f := wire.NetOverhead + hh.FullSize()
		tr := wire.NetOverhead + hh.TrimmedSize()
		t.Add(fmt.Sprintf("P=%d multi-level", p), c, f, tr,
			fmt.Sprintf("%.1f%%", 100*(1-float64(tr)/float64(f))))
	}
	return emit(w, o, t)
}

// runLayout regenerates the Figure 2 / MLT discussion (E6): how much
// gradient energy survives trimming under the naive contiguous layout vs
// the magnitude-sorted layout, plus the MLT tolerance numbers the paper
// cites (drop smallest 20% ≈ free; drop largest 20% ≈ fatal).
func runLayout(w io.Writer, o Options) error {
	n := 1 << 14
	if o.Quick {
		n = 1 << 11
	}
	v := scenario.Gradient(31+o.Seed, n)
	per := 256

	t := NewTable("Figure 2 / MLT — Layout under whole-float trimming (E6)",
		"layout", "keep_frac", "nmse", "cosine")
	sorted := sparse.AssignSorted(v, per)
	contig := sparse.AssignContiguous(n, per)
	allTrim := make([]bool, len(sorted.Packets))
	for i := range allTrim {
		allTrim[i] = true
	}
	for _, keep := range []float64{0.9, 0.8, 0.5, 0.2} {
		for _, layout := range []struct {
			name string
			a    *sparse.Assignment
		}{{"contiguous", contig}, {"magnitude-sorted", sorted}} {
			kept := sparse.ApplyMask(v, layout.a.Survivors(allTrim, keep))
			t.Add(layout.name, keep, vecmath.NMSE(v, kept),
				vecmath.CosineSimilarity(v, kept))
		}
	}
	if err := emit(w, o, t); err != nil {
		return err
	}

	t2 := NewTable("MLT tolerance check (paper §2)",
		"dropped", "nmse")
	order := vecmath.MagnitudeOrder(v)
	n20 := n / 5
	small := append([]float32(nil), v...)
	for _, i := range order[len(order)-n20:] {
		small[i] = 0
	}
	large := append([]float32(nil), v...)
	for _, i := range order[:n20] {
		large[i] = 0
	}
	t2.Add("smallest 20%", vecmath.NMSE(v, small))
	t2.Add("largest 20%", vecmath.NMSE(v, large))
	return emit(w, o, t2)
}

// runCompose regenerates §5.2/§5.3 (E9): sparsification and low-rank
// compression composed with just-in-time trimming. For each method we
// report bytes on the wire and reconstruction NMSE with and without
// trimming.
func runCompose(w io.Writer, o Options) error {
	n := 1 << 13
	if o.Quick {
		n = 1 << 11
	}
	v := scenario.Gradient(41+o.Seed, n)

	t := NewTable("§5.3 — Ahead-of-time compression + just-in-time trimming (E9)",
		"method", "wire_bytes", "trim", "nmse")

	// (a) Dense RHT trimmable encoding, untrimmed and 50% trimmed.
	cfg := core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 12}
	enc, err := core.NewEncoderWith(core.WithConfig(cfg))
	if err != nil {
		return err
	}
	for _, rate := range []float64{0, 0.5} {
		msg, err := enc.Encode(1, 1, v)
		if err != nil {
			return err
		}
		out, st, err := core.Receive(msg, core.NewTrimmer(rate, 7+o.Seed), n, core.WithConfig(cfg))
		if err != nil {
			return err
		}
		t.Add("dense rht", st.BytesReceived+wire.NetOverhead*st.Packets, rate, vecmath.NMSE(v, out))
	}

	// (b) Top-k sparsification (k = 10%) then RHT-encode the selected
	// values; trimming the value packets hits the compressed stream.
	k := n / 10
	idx, vals := sparse.TopK(v, k)
	padded := make([]float32, vecmath.NextPow2(len(vals)))
	copy(padded, vals)
	codec := quant.MustNew(quant.Params{Scheme: quant.RHT})
	for _, rate := range []float64{0, 0.5} {
		encRow, err := codec.Encode(padded, 5)
		if err != nil {
			return err
		}
		// Trim whole packet-sized blocks of coordinates with probability
		// rate (packet granularity modelled at the coordinate level; the
		// real wire path is exercised in part (a)).
		avail := quant.NoneTrimmed(len(padded))
		per := wire.CoordsPerPacket(1, 31)
		rng := xrand.New(xrand.Seed(9+o.Seed, uint64(rate*1000)))
		for start := 0; start < len(padded); start += per {
			if rng.Float64() >= rate {
				continue
			}
			end := start + per
			if end > len(padded) {
				end = len(padded)
			}
			for i := start; i < end; i++ {
				avail[i] = false
			}
		}
		decRow, err := codec.Decode(encRow, nil, avail)
		if err != nil {
			return err
		}
		dense, err := sparse.Densify(n, idx, decRow[:len(vals)])
		if err != nil {
			return err
		}
		// Wire bytes: 4B index + (1+31)/8 B value per kept coordinate.
		bytes := k * 8
		t.Add(fmt.Sprintf("top-%d%% + rht", 100*k/n), bytes, rate, vecmath.NMSE(v, dense))
	}

	// (c) PowerSGD low-rank with rank-ordered trimmable layout: trimming
	// drops trailing ranks. Real layer gradients are approximately
	// low-rank, so the target is a rank-8-dominated matrix plus noise
	// (an i.i.d. Gaussian matrix would make any low-rank method look
	// useless by construction).
	rows, cols := 128, n/128
	m := lowRankPlusNoise(51+o.Seed, rows, cols, 8, 0.05)
	comp := lowrank.NewCompressor(8, 3)
	var f lowrank.Factors
	for i := 0; i < 4; i++ {
		f = comp.Compress(m)
	}
	for _, ranks := range []int{8, 4, 2} {
		rec := lowrank.Decode(f, ranks)
		t.Add(fmt.Sprintf("powersgd rank<=%d", ranks), f.Bytes(ranks), "-",
			vecmath.NMSE(m.Data, rec.Data))
	}
	return emit(w, o, t)
}

// lowRankPlusNoise builds a rank-r-dominated matrix with decaying
// component scales plus iid noise of the given relative magnitude.
func lowRankPlusNoise(seed uint64, rows, cols, r int, noise float64) lowrank.Matrix {
	rng := xrand.New(seed)
	m := lowrank.NewMatrix(rows, cols)
	for k := 0; k < r; k++ {
		scale := 1.0 / float64(k+1)
		u := make([]float64, rows)
		v := make([]float64, cols)
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Data[i*cols+j] += float32(scale * u[i] * v[j])
			}
		}
	}
	for i := range m.Data {
		m.Data[i] += float32(rng.NormFloat64() * noise)
	}
	return m
}

// runFSDP regenerates §5.5 (E10): weights gathered through trimmed
// packets. A trained model's parameters are split into shards, each shard
// travels the trimmable codec at a given trim rate, and the rebuilt
// model's test accuracy is compared against the original.
func runFSDP(w io.Writer, o Options) error {
	cfg := ml.SyntheticConfig{
		Classes: 20, Dim: 32, Train: 3000, Test: 800,
		Noise: 0.95, Spread: 1.0, Seed: 5 + o.Seed,
	}
	epochs := 6
	if o.Quick {
		cfg.Train, cfg.Test = 800, 300
		epochs = 3
	}
	train, test := ml.Synthetic(cfg)
	tr, err := ddp.NewTrainer(train, test, ddp.WithConfig(ddp.Config{Workers: 1, Epochs: epochs, Seed: 3, LR: 0.05}), ddp.WithHidden(64))
	if err != nil {
		return err
	}
	if _, err := tr.Run(); err != nil {
		return err
	}
	model := tr.Model()
	base1, base5 := ml.Evaluate(model, test, 256)

	t := NewTable("§5.5 — FSDP weight gathering under trimming (E10)",
		"trim_rate", "scheme", "top1", "top5", "delta_top1")
	t.Add(0.0, "exact", base1, base5, 0.0)
	orig := append([]float32(nil), model.Params()...)
	for _, rate := range []float64{0.1, 0.5, 1.0} {
		for _, p := range []quant.Params{{Scheme: quant.RHT}, {Scheme: quant.Sign}} {
			ccfg := core.Config{Params: p, RowSize: 1 << 12}
			enc, err := core.NewEncoderWith(core.WithConfig(ccfg))
			if err != nil {
				return err
			}
			msg, err := enc.Encode(1, 1, orig)
			if err != nil {
				return err
			}
			gathered, _, err := core.Receive(msg, core.NewTrimmer(rate, 17+o.Seed), len(orig), core.WithConfig(ccfg))
			if err != nil {
				return err
			}
			model.SetParams(gathered)
			top1, top5 := ml.Evaluate(model, test, 256)
			t.Add(rate, p.Scheme.String(), top1, top5, top1-base1)
			model.SetParams(orig)
		}
	}
	return emit(w, o, t)
}

func init() {
	register(Runner{"wire-math", "§2 packet arithmetic (E5)", runWireMath})
	register(Runner{"layout", "Fig 2 / MLT layout comparison (E6)", runLayout})
	register(Runner{"compose", "sparsification & low-rank + trimming, §5.2-5.3 (E9)", runCompose})
	register(Runner{"fsdp", "FSDP weight gather under trimming, §5.5 (E10)", runFSDP})
}
