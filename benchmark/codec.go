package main

import (
	"fmt"
	"runtime"
	"time"

	"trimgrad/internal/core"
	"trimgrad/internal/fwht"
	"trimgrad/internal/quant"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

// codecSchemes are the four trimmable encodings of §3; one iteration
// exchanges the gradient under each in turn.
var codecSchemes = []quant.Scheme{quant.Sign, quant.SQ, quant.SD, quant.RHT}

const (
	codecRowSize = 1 << 13
	// trimRate is the share of data packets trimmed in flight.
	trimRate = 0.25
)

// nmsePerTrimmed is each scheme's expected decode NMSE per unit of
// trimmed coordinate share on N(0, σ²) input: what losing every tail costs
// under that scheme's estimator (sign: 2-2√(2/π); sq: L²/σ²-1 with
// L = 2.5σ; sd: L²/3σ²; rht: π/2-1). A trimmed exchange must decode
// within nmseSlack of it, scaled by the share actually trimmed, so a bias
// or scale bug trips the check at any gradient size while seed noise does
// not.
var nmsePerTrimmed = map[quant.Scheme]float64{
	quant.Sign: 0.403,
	quant.SQ:   5.25,
	quant.SD:   2.083,
	quant.RHT:  0.571,
}

const nmseSlack = 1.25

// codecWorkload is codec_exchange: one gradient through encode → trim →
// handle → decode with no simulator, so quant, fwht, vecmath, wire, core
// and par do all the work.
type codecWorkload struct {
	cfg  config
	seed uint64
	grad []float32
}

func (w *codecWorkload) setup() error {
	w.grad = normalGradient(w.cfg.codecDim, xrand.Seed(w.seed, 0x67726164))
	return nil
}

func codecConfig(s quant.Scheme, rowSize int) core.Config {
	return core.Config{Params: quant.Params{Scheme: s}, RowSize: rowSize}
}

// iterate exchanges the gradient once under each scheme, so every
// iteration does the same work and the median iteration is not a draw
// between four cost clusters.
func (w *codecWorkload) iterate(i int, tr *tracer) iterOut { return w.cycle(i, tr, 0) }

// cycle is one iteration at the given worker count (0 = all cores, the
// measured configuration; 1 = the serial reference verify compares with).
func (w *codecWorkload) cycle(i int, tr *tracer, workers int) iterOut {
	out := iterOut{nmse: map[string]float64{}}
	tr.setIter(i)
	root := tr.begin("driver.iteration")
	var d digestBuilder
	for _, scheme := range codecSchemes {
		out.attempted++
		w.exchange(i, scheme, tr, workers, &out, &d)
	}
	tr.end(root)
	out.digest = d.sum()
	return out
}

// exchange pushes the gradient through encode → trim → handle → decode
// under one scheme, adding its host time, outcome and digest to out. The
// NMSE and the checks run between exchanges, outside the timed region.
func (w *codecWorkload) exchange(i int, scheme quant.Scheme, tr *tracer, workers int, out *iterOut, d *digestBuilder) {
	seedI := xrand.Seed(w.seed, uint64(i))
	cfg := codecConfig(scheme, codecRowSize)
	msgID := uint32(i + 1)
	bad := func(stage string, err error) {
		out.fail(fmt.Sprintf("iteration %d (%s) %s: %v", i, scheme, stage, err))
	}
	enc, err := core.NewEncoderWith(core.WithConfig(cfg))
	if err != nil {
		bad("encoder", err)
		return
	}
	dec, err := core.NewDecoderWith(msgID, core.WithConfig(cfg))
	if err != nil {
		bad("decoder", err)
		return
	}

	start := time.Now()
	sp := tr.begin("core.encode")
	msg, err := enc.EncodeParallel(seedI, msgID, w.grad, workers)
	tr.end(sp)
	if err != nil {
		bad("encode", err)
		return
	}
	sp = tr.begin("wire.trim")
	trimmer := core.NewTrimmer(trimRate, seedI)
	for j, pkt := range msg.Data {
		msg.Data[j] = trimmer.Apply(pkt)
	}
	tr.end(sp)
	sp = tr.begin("core.handle")
	for _, pkts := range [][][]byte{msg.Meta, msg.Data} {
		for _, pkt := range pkts {
			if err == nil {
				err = dec.Handle(pkt)
			}
		}
	}
	tr.end(sp)
	if err != nil {
		bad("handle", err)
		return
	}
	sp = tr.begin("core.decode")
	got, stats, err := dec.DecodeParallel(len(w.grad), workers)
	tr.end(sp)
	out.hostNs += int64(time.Since(start))
	if err != nil {
		bad("decode", err)
		return
	}

	sp = tr.begin("driver.check")
	out.gradBytes += int64(len(w.grad)) * 4
	nmse := vecmath.NMSE(w.grad, got)
	out.nmse[scheme.String()] = nmse
	if bound := nmseSlack * nmsePerTrimmed[scheme] * stats.TrimFraction(); nmse > bound {
		out.fail(fmt.Sprintf("iteration %d (%s): NMSE %.4f above bound %.4f at trimmed share %.3f", i, scheme, nmse, bound, stats.TrimFraction()))
	}
	if stats.RejectedPackets > 0 || stats.DroppedCoords > 0 {
		out.fail(fmt.Sprintf("iteration %d (%s): %d packets rejected, %d coordinates dropped", i, scheme, stats.RejectedPackets, stats.DroppedCoords))
	}
	d.u64(uint64(stats.TrimmedCoords))
	d.f32s(got)
	tr.end(sp)
}

// verify re-runs iteration i in parallel (same seed twice) and serially:
// the workers=1 decode must be bit-equal to the parallel one.
func (w *codecWorkload) verify(i int, ref iterOut) []string {
	var fails []string
	for _, workers := range []int{0, 1} {
		if o := w.cycle(i, nil, workers); o.digest != ref.digest {
			fails = append(fails, fmt.Sprintf("iteration %d: digest %s at workers=%d, was %s",
				i, shortDigest(o.digest), workers, shortDigest(ref.digest)))
		}
	}
	return fails
}

func (w *codecWorkload) layers([]span, int) (map[string]float64, []string) { return nil, nil }

func (w *codecWorkload) extraArm(int, []iterOut) (map[string]float64, float64, []string) {
	return nil, 0, nil
}

func (w *codecWorkload) codecSample() codecSample {
	return codecSample{grad: w.grad, rowSize: codecRowSize, schemes: codecSchemes}
}

// codecSample is the gradient, row size and schemes a workload pushes
// through the codec: what measureCodecLayers times the codec layers on.
type codecSample struct {
	grad    []float32
	rowSize int
	schemes []quant.Scheme
}

// codecLayerCoords is how many coordinates measureCodecLayers pushes
// through each scheme at -seconds refSeconds: four passes over
// codec_exchange's megafloat gradient, proportionally more over the
// smaller messages of the other workloads.
const codecLayerCoords = 4 << 20

// measureCodecLayers times quant, fwht, wire, core and par from outside,
// one public call at a time, on the workload's own rows. It passes over
// every scheme a fixed number of times (codecLayerCoords, scaled like the
// iteration counts) and reports the median of each timing. Failed calls
// are returned as check failures.
func measureCodecLayers(s codecSample, seed uint64, seconds float64) (map[string]float64, []string) {
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var fails []string
	rows := fwht.SplitRows(s.grad, s.rowSize)
	coords := float64(len(rows) * s.rowSize)
	passes := iterations(codecLayerCoords/len(s.grad), seconds)
	for rep := 0; rep < passes*len(s.schemes); rep++ {
		scheme := s.schemes[rep%len(s.schemes)]
		if err := codecLayersOnce(s, rows, coords, scheme, xrand.Seed(seed, uint64(rep)), uint32(rep+1), add); err != nil {
			fails = append(fails, fmt.Sprintf("codec layers (%s): %v", scheme, err))
			break
		}
	}
	m := make(map[string]float64, len(samples))
	for name, v := range samples {
		m[name] = median(v)
	}
	return m, fails
}

// codecLayersOnce is one pass of one scheme through every layer call.
func codecLayersOnce(s codecSample, rows [][]float32, coords float64, scheme quant.Scheme,
	epoch uint64, msgID uint32, add func(string, float64)) error {
	name := scheme.String()
	cfg := codecConfig(scheme, s.rowSize)
	codec, err := quant.New(cfg.Params)
	if err != nil {
		return err
	}
	since := func(t time.Time) float64 { return float64(time.Since(t)) }

	// quant: Codec.Encode on each row with the row seed core would use.
	encs := make([]*quant.EncodedRow, len(rows))
	t := time.Now()
	for r, row := range rows {
		if encs[r], err = codec.Encode(row, core.RowSeed(epoch, msgID, uint32(r))); err != nil {
			return err
		}
	}
	quantEnc := since(t)
	add("quant.encode_ns_per_coord."+name, quantEnc/coords)

	// wire: PackRow, Trim on a quarter of the data packets, parse + reassemble.
	metas := make([][]byte, len(rows))
	datas := make([][][]byte, len(rows))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t = time.Now()
	pkts := 0
	for r := range rows {
		if metas[r], datas[r], err = wire.PackRow(0, msgID, uint32(r), encs[r]); err != nil {
			return err
		}
		pkts += 1 + len(datas[r])
	}
	pack := since(t)
	runtime.ReadMemStats(&m1)
	add("wire.pack_ns_per_pkt", pack/float64(pkts))
	add("wire.allocs_per_pkt", float64(m1.Mallocs-m0.Mallocs)/float64(pkts))

	rng := xrand.New(epoch)
	var chosen [][2]int
	for r := range datas {
		for j := range datas[r] {
			if rng.Float64() < trimRate {
				chosen = append(chosen, [2]int{r, j})
			}
		}
	}
	t = time.Now()
	for _, c := range chosen {
		datas[c[0]][c[1]] = wire.Trim(datas[c[0]][c[1]], 0)
	}
	if len(chosen) > 0 {
		add("wire.trim_ns_per_pkt", since(t)/float64(len(chosen)))
	}

	asms := make([]*wire.RowAssembler, len(rows))
	t = time.Now()
	for r := range rows {
		asm := wire.NewRowAssembler()
		mp, err := wire.ParseMetaPacket(metas[r])
		if err != nil {
			return err
		}
		if err := asm.AddMeta(mp); err != nil {
			return err
		}
		for _, pkt := range datas[r] {
			dp, err := wire.ParseDataPacket(pkt)
			if err != nil {
				return err
			}
			if err := asm.AddData(dp); err != nil {
				return err
			}
		}
		asms[r] = asm
	}
	parse := since(t)
	add("wire.parse_ns_per_pkt", parse/float64(pkts))

	t = time.Now()
	for _, asm := range asms {
		enc, heads, tails, err := asm.Assemble()
		if err != nil {
			return err
		}
		if _, err := codec.Decode(enc, heads, tails); err != nil {
			return err
		}
	}
	quantDec := since(t)
	add("quant.decode_ns_per_coord."+name, quantDec/coords)

	// fwht: one rotation and its inverse on a copy of the first row.
	row := append([]float32(nil), rows[0]...)
	t = time.Now()
	fwht.RandomRotate(row, epoch)
	fwht.InverseRandomRotate(row, epoch)
	add("fwht.rotate_ns_per_coord", since(t)/float64(2*len(row)))

	// core: whole serial Encode and Handle+Reconstruct spans, then the
	// same at workers=0 for the par speedup.
	enc, err := core.NewEncoderWith(core.WithConfig(cfg))
	if err != nil {
		return err
	}
	var encNs, decNs [2]float64 // [serial, parallel]
	for k, workers := range []int{1, 0} {
		t = time.Now()
		msg, err := enc.EncodeParallel(epoch, msgID, s.grad, workers)
		if err != nil {
			return err
		}
		encNs[k] = since(t)
		trimmer := core.NewTrimmer(trimRate, epoch)
		for j, pkt := range msg.Data {
			msg.Data[j] = trimmer.Apply(pkt)
		}
		dec, err := core.NewDecoderWith(msgID, core.WithConfig(cfg))
		if err != nil {
			return err
		}
		t = time.Now()
		for _, set := range [][][]byte{msg.Meta, msg.Data} {
			for _, pkt := range set {
				if err := dec.Handle(pkt); err != nil {
					return err
				}
			}
		}
		handle := since(t)
		t = time.Now()
		_, stats, err := dec.DecodeParallel(len(s.grad), workers)
		if err != nil {
			return err
		}
		decNs[k] = since(t)
		if workers == 1 {
			add("core.encode_s", encNs[k]/1e9)
			add("core.decode_s", (handle+decNs[k])/1e9)
			// core's own share: the whole spans minus the quant and wire
			// calls timed above on the same rows.
			add("core.self_share", 1-(quantEnc+quantDec+pack+parse)/(encNs[k]+handle+decNs[k]))
			add("core.rejected_pkts", float64(stats.RejectedPackets))
			add("core.trimmed_coord_share", stats.TrimFraction())
		}
	}
	add("par.codec_speedup", (encNs[0]+decNs[0])/(encNs[1]+decNs[1]))
	return nil
}
