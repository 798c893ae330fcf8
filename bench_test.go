// Benchmarks mirroring the paper's evaluation artifacts, one per
// figure/claim (the E-ids of DESIGN.md). `go test -bench=. -benchmem`
// measures the real Go costs behind each experiment; cmd/trimbench prints
// the corresponding tables.
package trimgrad

import (
	"fmt"
	"testing"

	"trimgrad/internal/collective"
	"trimgrad/internal/core"
	"trimgrad/internal/ddp"
	"trimgrad/internal/fwht"
	"trimgrad/internal/lowrank"
	"trimgrad/internal/ml"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/par"
	"trimgrad/internal/quant"
	"trimgrad/internal/sparse"
	"trimgrad/internal/transport"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

// newStack attaches a transport stack configured by cfg; transport.New
// cannot fail today, so a failure is a bug worth stopping the benchmark.
func newStack(h *netsim.Host, cfg transport.Config) *transport.Stack {
	s, err := transport.New(h, transport.WithConfig(cfg))
	if err != nil {
		panic(err)
	}
	return s
}

func benchRow(n int) []float32 {
	r := xrand.New(1)
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64() * 0.05)
	}
	return v
}

var benchSchemes = []quant.Params{
	{Scheme: quant.Sign},
	{Scheme: quant.SQ},
	{Scheme: quant.SD},
	{Scheme: quant.RHT},
	{Scheme: quant.RHTLinear, P: 8},
}

// BenchmarkFig5Encode measures per-scheme encode cost on a paper-sized
// (2^15) row — the "encoding overhead" component of Figure 5 / §4.4,
// including the RHT-vs-scalar ratio the paper reports as ≈1.18×.
func BenchmarkFig5Encode(b *testing.B) {
	row := benchRow(fwht.DefaultRowSize)
	for _, p := range benchSchemes {
		c := quant.MustNew(p)
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(row) * 4))
			for i := 0; i < b.N; i++ {
				if _, err := c.Encode(row, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5Decode measures fully-trimmed decode cost per scheme (the
// receiver-side half of the hook overhead).
func BenchmarkFig5Decode(b *testing.B) {
	row := benchRow(fwht.DefaultRowSize)
	trimmed := quant.AllTrimmed(len(row))
	for _, p := range benchSchemes {
		c := quant.MustNew(p)
		enc, err := c.Encode(row, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(row) * 4))
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(enc, nil, trimmed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3TrainingRound measures one full data-parallel training
// round (forward, backward, encode, inject 10% trimming, decode, step)
// per scheme — the unit of Figure 3/4's wall-clock axis.
func BenchmarkFig3TrainingRound(b *testing.B) {
	train, test := ml.Synthetic(ml.SyntheticConfig{
		Classes: 20, Dim: 32, Train: 256, Test: 10, Seed: 3,
	})
	type cse struct {
		name string
		sp   *quant.Params
	}
	cases := []cse{{"baseline", nil}}
	for i := range benchSchemes {
		sc := benchSchemes[i]
		name := sc.Scheme.String()
		if sc.P > 1 {
			name = fmt.Sprintf("%s-p%d", name, sc.P)
		}
		cases = append(cases, cse{name, &sc})
	}
	for _, c := range cases {
		cfg := ddp.Config{Workers: 2, Epochs: 1, Seed: 1, Batch: 128, Scheme: c.sp, RowSize: 1 << 10}
		if c.sp != nil {
			cfg.TrimRate = 0.1 // the baseline is never trimmed, and refuses a rate
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, err := ddp.NewTrainer(train, test, ddp.WithConfig(cfg), ddp.WithHidden(32))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tr.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4Exchange measures the encode→inject→decode gradient
// exchange alone at Figure 4's extreme trim rates.
func BenchmarkFig4Exchange(b *testing.B) {
	grad := benchRow(1 << 16)
	for _, rate := range []float64{0.01, 0.5} {
		cfg := core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 13}
		enc, err := core.NewEncoderWith(core.WithConfig(cfg))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rht-trim%g", rate), func(b *testing.B) {
			b.SetBytes(int64(len(grad) * 4))
			for i := 0; i < b.N; i++ {
				msg, err := enc.Encode(1, uint32(i+1), grad)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := core.Receive(msg, core.NewTrimmer(rate, uint64(i)), len(grad), core.WithConfig(cfg)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4ReliableUnderLoss measures a full reliable-transport message
// delivery over the simulated fabric at the §4.4 loss rates.
func BenchmarkE4ReliableUnderLoss(b *testing.B) {
	grad := benchRow(1 << 14)
	for _, rate := range []float64{0, 0.01} {
		b.Run(fmt.Sprintf("loss%g", rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := netsim.NewSim()
				star := netsim.NewStar(sim, 2,
					netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond},
					netsim.QueueConfig{CapacityBytes: 1 << 20, LossRate: rate, LossSeed: uint64(i)})
				a := newStack(star.Hosts[0], transport.Config{})
				rx := newStack(star.Hosts[1], transport.Config{})
				rx.Receiver = transport.ReceiverFunc(func(netsim.NodeID, []byte) {})
				enc, _ := core.NewEncoderWith(core.WithConfig(core.Config{Params: quant.Params{Scheme: quant.Sign}}))
				msg, _ := enc.Encode(1, 1, grad)
				payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
				done := false
				a.SendReliable(1, 1, payloads, func(netsim.Time) { done = true }, nil)
				sim.RunUntil(30 * netsim.Second)
				if !done {
					b.Fatal("message did not complete")
				}
			}
		})
	}
}

// BenchmarkE5WirePack measures packetization + switch trim of one row —
// the data path of the §2 arithmetic.
func BenchmarkE5WirePack(b *testing.B) {
	row := benchRow(1 << 13)
	c := quant.MustNew(quant.Params{Scheme: quant.Sign})
	enc, err := c.Encode(row, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, data, err := wire.PackRow(1, 1, 0, enc)
		if err != nil {
			b.Fatal(err)
		}
		for _, pkt := range data {
			wire.Trim(pkt, 0)
		}
	}
}

// BenchmarkE5WireParse measures the receive side of the same row, one
// sub-benchmark per way a layer touches an arrived packet: validate is a
// transport's admission (CRCs only), parse materializes a DataPacket, and
// ingest is the decoder's whole cost of the row short of the inverse
// transform (verify, unpack into scratch, decode into the row's
// accumulator, the accumulator itself drawn from and returned to the pool).
// Half the packets are head-trimmed, as under a congested hop.
func BenchmarkE5WireParse(b *testing.B) {
	row := benchRow(1 << 13)
	c := quant.MustNew(quant.Params{Scheme: quant.Sign})
	enc, err := c.Encode(row, 1)
	if err != nil {
		b.Fatal(err)
	}
	meta, data, err := wire.PackRow(1, 1, 0, enc)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < len(data); i += 2 {
		data[i] = wire.Trim(data[i], 0)
	}
	b.Run("validate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, pkt := range data {
				if _, err := wire.Validate(pkt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, pkt := range data {
				if _, err := wire.ParseDataPacket(pkt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("ingest", func(b *testing.B) {
		cfg := core.Config{Params: quant.Params{Scheme: quant.Sign}, RowSize: len(row)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dec, err := core.NewDecoderWith(1, core.WithConfig(cfg))
			if err != nil {
				b.Fatal(err)
			}
			if err := dec.Handle(meta); err != nil {
				b.Fatal(err)
			}
			for _, pkt := range data {
				if err := dec.Handle(pkt); err != nil {
					b.Fatal(err)
				}
			}
			if s := dec.Stats(); s.Packets != len(data) {
				b.Fatalf("ingested %d of %d packets", s.Packets, len(data))
			}
			dec.Release()
		}
	})
}

// BenchmarkE6LayoutAssign measures the magnitude-sorted packet assignment
// of the Figure 2 layout study.
func BenchmarkE6LayoutAssign(b *testing.B) {
	v := benchRow(1 << 14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sparse.AssignSorted(v, 354)
	}
}

// BenchmarkE7MultiLevelEncode measures the multi-bit head encoders of
// §5.1 (RHTLinear at P = 8, Linear at P = 4, Eden at P = 2) against the
// 1-bit RHT.
func BenchmarkE7MultiLevelEncode(b *testing.B) {
	row := benchRow(1 << 13)
	for _, p := range []quant.Params{
		{Scheme: quant.RHT}, {Scheme: quant.RHTLinear, P: 8},
		{Scheme: quant.Linear, P: 4}, {Scheme: quant.Eden, P: 2},
	} {
		c := quant.MustNew(p)
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(row) * 4))
			for i := 0; i < b.N; i++ {
				if _, err := c.Encode(row, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Incast runs a full 8-way incast simulation per mode — the
// motivation experiment.
func BenchmarkE8Incast(b *testing.B) {
	grad := benchRow(1 << 13)
	for _, mode := range []netsim.QueueMode{netsim.DropTail, netsim.TrimOverflow} {
		name := "drop"
		if mode == netsim.TrimOverflow {
			name = "trim"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := netsim.NewSim()
				star := netsim.NewStar(sim, 9,
					netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond},
					netsim.QueueConfig{CapacityBytes: 64 << 10, HighCapacityBytes: 512 << 10, Mode: mode})
				rx := newStack(star.Hosts[8], transport.Config{})
				rx.Receiver = transport.ReceiverFunc(func(netsim.NodeID, []byte) {})
				completed := 0
				for s := 0; s < 8; s++ {
					st := newStack(star.Hosts[s], transport.Config{})
					enc, _ := core.NewEncoderWith(core.WithConfig(core.Config{
						Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 12, Flow: uint32(s),
					}))
					msg, _ := enc.Encode(1, uint32(s+1), grad)
					onDone := func(netsim.Time) { completed++ }
					if mode == netsim.TrimOverflow {
						st.SendTrimmable(8, uint32(s+1), msg.Meta, msg.Data, onDone, nil)
					} else {
						payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
						st.SendReliable(8, uint32(s+1), payloads, onDone, nil)
					}
				}
				sim.RunUntil(30 * netsim.Second)
				if completed != 8 {
					b.Fatalf("completed %d/8", completed)
				}
			}
		})
	}
}

// BenchmarkE9PowerSGD measures rank-4 PowerSGD compression of a
// 256×256 gradient matrix (§5.2).
func BenchmarkE9PowerSGD(b *testing.B) {
	m := lowrank.Matrix{Rows: 256, Cols: 256, Data: benchRow(256 * 256)}
	c := lowrank.NewCompressor(4, 1)
	b.SetBytes(int64(len(m.Data) * 4))
	for i := 0; i < b.N; i++ {
		f := c.Compress(m)
		lowrank.Decode(f, 4)
	}
}

// BenchmarkE10FSDPGather measures a 4-way all-gather of model shards over
// the simulated fabric (§5.5).
func BenchmarkE10FSDPGather(b *testing.B) {
	shard := benchRow(1 << 12)
	shards := [][]float32{shard, shard, shard, shard}
	for i := 0; i < b.N; i++ {
		sim := netsim.NewSim()
		star := netsim.NewStar(sim, 4,
			netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 2 * netsim.Microsecond},
			netsim.QueueConfig{CapacityBytes: 1 << 20, Mode: netsim.TrimOverflow})
		workers, err := collective.Bind(star.Hosts, transport.Config{}, collective.WithConfig(core.Config{
			Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 11,
		}), collective.WithMode(collective.Trimmable))
		if err != nil {
			b.Fatal(err)
		}
		done := 0
		err = collective.AllGather(1, 10, workers, shards,
			func(int, [][]float32, netsim.Time) { done++ }, nil)
		if err != nil {
			b.Fatal(err)
		}
		sim.RunUntil(30 * netsim.Second)
		if done != 4 {
			b.Fatalf("gathered %d/4", done)
		}
	}
}

// BenchmarkE11TranscriptReplay measures record + replay of one message's
// packet fates (§5.4).
func BenchmarkE11TranscriptReplay(b *testing.B) {
	grad := benchRow(1 << 14)
	cfg := core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 12}
	enc, _ := core.NewEncoderWith(core.WithConfig(cfg))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		msg, _ := enc.Encode(1, 1, grad)
		rec := core.NewRecorder(core.NewTrimmer(0.5, uint64(i)))
		for _, d := range msg.Data {
			rec.Apply(append([]byte(nil), d...))
		}
		player := core.NewPlayer(&rec.Transcript)
		msg2, _ := enc.Encode(1, 1, grad)
		for _, d := range msg2.Data {
			player.Apply(d)
		}
	}
}

// The BenchmarkHot* family is the hot-path suite: each benchmark runs a
// `<name>/serial` and a `<name>/parallel` sub-benchmark over identical
// work with live obs registries attached, so one `go test -bench Hot`
// reads off the serial/parallel speedup. `scripts/check.sh -bench`
// smoke-runs it under -race; measured comparisons across commits come
// from `go run ./benchmark`.

// BenchmarkHotEncodeDecodeRound measures a full gradient round trip —
// encode to packets, reassemble, decode — on a DDP-sized gradient.
func BenchmarkHotEncodeDecodeRound(b *testing.B) {
	grad := benchRow(1 << 18)
	cfg := core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 13}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			reg := obs.New()
			enc, err := core.NewEncoderWith(core.WithConfig(cfg), core.WithRegistry(reg))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(grad) * 4))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				msg, err := enc.EncodeParallel(1, uint32(i+1), grad, bc.workers)
				if err != nil {
					b.Fatal(err)
				}
				dec, err := core.NewDecoderWith(uint32(i+1), core.WithConfig(cfg), core.WithRegistry(reg))
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range msg.Meta {
					if err := dec.Handle(m); err != nil {
						b.Fatal(err)
					}
				}
				for _, d := range msg.Data {
					if err := dec.Handle(d); err != nil {
						b.Fatal(err)
					}
				}
				if _, _, err := dec.DecodeParallel(len(grad), bc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// mlArms are the two ways a pass runs its kernels: a replica's, on the
// calling goroutine, and a NewMLP model's, fanned out over the par crew.
var mlArms = []struct {
	name  string
	model func(m *ml.Model) *ml.Model
}{
	{"serial", (*ml.Model).Replica},
	{"parallel", func(m *ml.Model) *ml.Model { return m }},
}

// trainPass is one worker's share of a round through public calls.
func trainPass(m *ml.Model, x [][]float32, y []int) {
	m.ZeroGrad()
	logits := m.Forward(x, true)
	_, dLogits := ml.SoftmaxCrossEntropy(logits, y)
	m.Backward(dLogits)
}

// BenchmarkHotMatmul measures one dense-layer forward+backward on a
// training-shaped batch — the blocked-matmul kernels in isolation.
func BenchmarkHotMatmul(b *testing.B) {
	train, _ := ml.Synthetic(ml.SyntheticConfig{Classes: 20, Dim: 128, Train: 256, Test: 1, Seed: 6})
	xs, ys := train.Batches(128, 3)
	for _, arm := range mlArms {
		b.Run(arm.name, func(b *testing.B) {
			m := arm.model(ml.NewMLP(5, train.Dim, 256, train.Classes))
			b.SetBytes(int64(128 * train.Dim * 256 * 4))
			for i := 0; i < b.N; i++ {
				trainPass(m, xs[0], ys[0])
			}
		})
	}
}

// BenchmarkHotMLEpoch measures one full training epoch — every batch
// through forward, loss, backward, and an SGD step.
func BenchmarkHotMLEpoch(b *testing.B) {
	train, _ := ml.Synthetic(ml.SyntheticConfig{Classes: 20, Dim: 64, Train: 1024, Test: 1, Seed: 7})
	for _, arm := range mlArms {
		b.Run(arm.name, func(b *testing.B) {
			m := arm.model(ml.NewMLP(8, train.Dim, 128, train.Classes))
			opt := ml.NewSGD(0.05, 0.9)
			for i := 0; i < b.N; i++ {
				xs, ys := train.Batches(64, uint64(i))
				for r := range xs {
					trainPass(m, xs[r], ys[r])
					opt.Step(m.Params(), m.Grads())
				}
			}
		})
	}
}

// BenchmarkTrainCompute measures the compute half of one train_k4_ps round
// — 8 workers, batch 64, the 32-256-128-30 MLP — the two ways there are to
// run it: every worker through one model, one after another, each kernel
// forking the crew (what the benchmark's unrolled loop still does), and
// every worker on its own replica, the eight passes handed to the crew
// whole (what ddp.computeGrads does).
func BenchmarkTrainCompute(b *testing.B) {
	const workers, batch = 8, 64
	train, _ := ml.Synthetic(ml.SyntheticConfig{Classes: 30, Dim: 32, Train: workers * batch, Test: 1, Seed: 7})
	xs, ys := train.Batches(batch, 3)
	model := ml.NewMLP(1, train.Dim, 256, 128, train.Classes)
	replicas := make([]*ml.Model, workers)
	for w := range replicas {
		replicas[w] = model.Replica()
	}
	b.Run("one-model", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for w := 0; w < workers; w++ {
				trainPass(model, xs[w], ys[w])
			}
		}
	})
	b.Run("replicas", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			par.Default.ForEach(workers, 0, func(w int) { trainPass(replicas[w], xs[w], ys[w]) })
		}
	})
}

// BenchmarkFWHT measures the fast Walsh-Hadamard transform on the paper's
// row size (the kernel the fast-hadamard-transform CUDA library provides
// on the testbed) and on the 2^11 row the benchmark's training workload
// encodes.
func BenchmarkFWHT(b *testing.B) {
	for _, n := range []int{fwht.DefaultRowSize, 1 << 11} {
		b.Run(fmt.Sprintf("row%d", n), func(b *testing.B) {
			v := benchRow(n)
			b.SetBytes(int64(len(v) * 4))
			for i := 0; i < b.N; i++ {
				fwht.Transform(v)
			}
		})
	}
}
