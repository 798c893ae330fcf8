package collective

import (
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

// newStack attaches a transport stack configured by cfg; transport.New
// cannot fail today, so a failure is a bug worth stopping the test binary.
func newStack(h *netsim.Host, cfg transport.Config) *transport.Stack {
	s, err := transport.New(h, transport.WithConfig(cfg))
	if err != nil {
		panic(err)
	}
	return s
}

func gaussianGrad(seed uint64, n int) []float32 {
	r := xrand.New(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64() * 0.05)
	}
	return v
}

func exactMean(grads [][]float32) []float32 {
	out := make([]float32, len(grads[0]))
	for _, g := range grads {
		vecmath.Add(out, g)
	}
	vecmath.Scale(out, 1/float32(len(grads)))
	return out
}

func coreCfg(s quant.Scheme) core.Config {
	return core.Config{Params: quant.Params{Scheme: s}, RowSize: 1 << 9}
}

// starWorkers builds n workers on a star fabric.
func starWorkers(t *testing.T, n int, mode Mode, q netsim.QueueConfig,
	link netsim.LinkConfig, s quant.Scheme) (*netsim.Topology, []*Worker) {
	t.Helper()
	star := netsim.NewStar(netsim.NewSim(), n, link, q)
	ws, err := Bind(star.Hosts, transport.Config{}, WithConfig(coreCfg(s)), WithMode(mode))
	if err != nil {
		t.Fatal(err)
	}
	return star, ws
}

func ringWorkers(t *testing.T, n int, mode Mode, q netsim.QueueConfig,
	edge, trunk netsim.LinkConfig, s quant.Scheme) (*netsim.Sim, []*Worker) {
	t.Helper()
	sim := netsim.NewSim()
	ring := netsim.NewRing(sim, n, edge, trunk, q)
	ws, err := Bind(ring.Hosts, transport.Config{}, WithConfig(coreCfg(s)), WithMode(mode))
	if err != nil {
		t.Fatal(err)
	}
	return sim, ws
}

// mustAllReduce runs one all-reduce round on sim for up to 30 simulated
// seconds and returns every rank's average, failing t on an error or on a
// rank that did not finish.
func mustAllReduce(t *testing.T, sim *netsim.Sim, a Algorithm, epoch uint64, baseMsg uint32,
	ws []*Worker, grads [][]float32) [][]float32 {
	t.Helper()
	outs, err := RunAllReduce(sim, sim.Now()+30*netsim.Second, a, epoch, baseMsg, ws, grads)
	if err != nil {
		t.Fatalf("%v n=%d: %v", a, len(ws), err)
	}
	avgs := make([][]float32, len(outs))
	for rank, o := range outs {
		if o.Avg == nil {
			t.Fatalf("%v n=%d: rank %d incomplete", a, len(ws), rank)
		}
		avgs[rank] = o.Avg
	}
	return avgs
}

func fast() netsim.LinkConfig {
	return netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: netsim.Microsecond}
}

func deepQ() netsim.QueueConfig {
	return netsim.QueueConfig{CapacityBytes: 8 << 20, Mode: netsim.TrimOverflow}
}

func TestAllReduceDirectExactNoCongestion(t *testing.T) {
	for _, mode := range []Mode{Reliable, Trimmable} {
		const n = 4
		star, ws := starWorkers(t, n, mode, deepQ(), fast(), quant.RHT)
		sim := star.Net.Sim
		grads := make([][]float32, n)
		for i := range grads {
			grads[i] = gaussianGrad(uint64(i+1), 3000)
		}
		want := exactMean(grads)
		for rank, got := range mustAllReduce(t, sim, AlgDirect, 7, 100, ws, grads) {
			if nm := vecmath.NMSE(want, got); nm > 1e-8 {
				t.Errorf("mode %v rank %d: NMSE %g", mode, rank, nm)
			}
		}
	}
}

func TestAllReduceDirectSingleWorker(t *testing.T) {
	_, ws := starWorkers(t, 2, Trimmable, deepQ(), fast(), quant.Sign)
	grads := [][]float32{gaussianGrad(1, 100)}
	got := false
	err := AllReduce(AlgDirect, 1, 1, ws[:1], grads,
		func(rank int, avg []float32, at netsim.Time) {
			got = true
			if nm := vecmath.NMSE(grads[0], avg); nm != 0 {
				t.Errorf("single-worker NMSE %g", nm)
			}
		}, nil)
	if err != nil || !got {
		t.Fatalf("err=%v got=%v", err, got)
	}
}

func TestAllReduceDirectValidation(t *testing.T) {
	_, ws := starWorkers(t, 2, Trimmable, deepQ(), fast(), quant.Sign)
	if err := AllReduce(AlgDirect, 1, 1, ws, [][]float32{{1}}, nil, nil); err == nil {
		t.Error("mismatched gradient count should fail")
	}
	if err := AllReduce(AlgDirect, 1, 1, ws, [][]float32{{1, 2}, {1}}, nil, nil); err == nil {
		t.Error("mismatched lengths should fail")
	}
}

func TestAllReduceRingExactNoCongestion(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		sim, ws := ringWorkers(t, n, Trimmable, deepQ(), fast(), fast(), quant.RHT)
		grads := make([][]float32, n)
		for i := range grads {
			grads[i] = gaussianGrad(uint64(10+i), 2048)
		}
		want := exactMean(grads)
		for rank, got := range mustAllReduce(t, sim, AlgRing, 3, 500, ws, grads) {
			// Ring re-encodes per hop; sign-head RHT is exact untrimmed,
			// so the result should match the true mean almost exactly.
			if nm := vecmath.NMSE(want, got); nm > 1e-6 {
				t.Errorf("n=%d rank %d: NMSE %g", n, rank, nm)
			}
		}
	}
}

func TestAllReduceRingValidation(t *testing.T) {
	_, ws := ringWorkers(t, 3, Trimmable, deepQ(), fast(), fast(), quant.Sign)
	grads := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	if err := AllReduce(AlgRing, 1, 1, ws, grads, nil, nil); err == nil {
		t.Error("dim < n should fail")
	}
}

func TestAllReduceDirectUnderCongestionTrims(t *testing.T) {
	// Shallow trimming switch + simultaneous all-to-all = incast at every
	// egress port; messages must complete without data retransmission and
	// the average must stay directionally correct.
	const n = 4
	star, ws := starWorkers(t, n, Trimmable,
		netsim.QueueConfig{CapacityBytes: 6000, Mode: netsim.TrimOverflow, HighCapacityBytes: 64 << 10},
		netsim.LinkConfig{Bandwidth: netsim.Mbps(200), Delay: 2 * netsim.Microsecond},
		quant.RHT)
	sim := star.Net.Sim
	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = gaussianGrad(uint64(20+i), 1<<13)
	}
	want := exactMean(grads)
	trimmedTotal := 0
	for rank, got := range mustAllReduce(t, sim, AlgDirect, 9, 1000, ws, grads) {
		cos := vecmath.CosineSimilarity(want, got)
		if cos < 0.8 {
			t.Errorf("rank %d: cosine %v under trimming", rank, cos)
		}
		trimmedTotal += ws[rank].AggStats.TrimmedCoords
	}
	if trimmedTotal == 0 {
		t.Error("expected some coordinate trimming under congestion")
	}
}

func TestAllGatherExact(t *testing.T) {
	const n = 3
	star, ws := starWorkers(t, n, Trimmable, deepQ(), fast(), quant.Sign)
	sim := star.Net.Sim
	shards := make([][]float32, n)
	for i := range shards {
		shards[i] = gaussianGrad(uint64(30+i), 777)
	}
	results := make([][][]float32, n)
	err := AllGather(2, 400, ws, shards,
		func(rank int, gathered [][]float32, at netsim.Time) { results[rank] = gathered },
		func(rank int, err error) { t.Errorf("rank %d: %v", rank, err) })
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	for rank, g := range results {
		if g == nil {
			t.Fatalf("rank %d incomplete", rank)
		}
		for src, shard := range g {
			if nm := vecmath.NMSE(shards[src], shard); nm > 1e-8 {
				t.Errorf("rank %d shard %d: NMSE %g", rank, src, nm)
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if Reliable.String() != "reliable" || Trimmable.String() != "trimmable" {
		t.Error("mode names")
	}
}
