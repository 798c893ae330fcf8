package ddp

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"trimgrad/internal/collective"
	"trimgrad/internal/ml"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
)

// Both trainers compute a round's gradients on per-worker replicas, all
// workers at once. Nothing a run reports may depend on that: the digests in
// testdata/run_digests.txt were recorded with the code that pushed every
// worker through one model, one after another, and every cell must still
// reproduce them — final parameters, every Point (Loss bits included) and
// WallTotal. The cells are small enough to run under -race. Cells run with
// a registry also digest the start and end of every ddp.round.* span.

var updateDDP = flag.Bool("update-ddp", false,
	"re-record testdata/run_digests.txt (only from a tree known to be right)")

const runGolden = "testdata/run_digests.txt"

// digestData is 100 samples per worker at three workers and 75 at four, so
// with batch 32 every epoch ends on a ragged batch.
func digestData() (*ml.Dataset, *ml.Dataset) {
	return ml.Synthetic(ml.SyntheticConfig{
		Classes: 10, Dim: 16, Train: 300, Test: 120,
		Noise: 0.35, Spread: 1.0, Seed: 42,
	})
}

func runDigest(res *Result, params []float32, spans []obs.SpanPoint) string {
	h := sha256.New()
	for _, p := range res.Points {
		fmt.Fprintf(h, "%d %016x %016x %016x %016x %016x\n", p.Epoch, math.Float64bits(p.Wall),
			math.Float64bits(p.Loss), math.Float64bits(p.Top1), math.Float64bits(p.Top5), math.Float64bits(p.TrimFrac))
	}
	fmt.Fprintf(h, "%016x %v %v\n", math.Float64bits(res.WallTotal), res.Diverged, res.TimedOut)
	for _, x := range params {
		fmt.Fprintf(h, "%08x", math.Float32bits(x))
	}
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "ddp.round.") {
			fmt.Fprintf(h, "\n%s %d %d", sp.Name, sp.Start, sp.End)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func TestRunDigestsMatchOneModelLoop(t *testing.T) {
	train, test := digestData()
	trainer := func(cfg Config, opts ...Option) func() (*Result, []float32, error) {
		return func() (*Result, []float32, error) {
			tr, err := NewTrainer(train, test, append(opts, WithConfig(cfg), WithHidden(64, 32))...)
			if err != nil {
				return nil, nil, err
			}
			res, err := tr.Run()
			return res, tr.Model().Params(), err
		}
	}
	netTrainer := func(cfg Config, fabric FabricConfig, opts ...Option) func() (*Result, []float32, error) {
		return func() (*Result, []float32, error) {
			nt, err := NewNetTrainer(train, test, append(opts, WithConfig(cfg), WithFabric(fabric), WithHidden(64, 32))...)
			if err != nil {
				return nil, nil, err
			}
			res, err := nt.Run()
			return res, nt.Model().Params(), err
		}
	}
	shallow := netsim.QueueConfig{CapacityBytes: 8 << 10, HighCapacityBytes: 1 << 20, Mode: netsim.TrimOverflow}
	slow := netsim.LinkConfig{Bandwidth: netsim.Mbps(500), Delay: 5 * netsim.Microsecond}
	injectedReg, fabricReg := obs.New(), obs.New()
	cells := []struct {
		name     string
		run      func() (*Result, []float32, error)
		reg      *obs.Registry // non-nil: its ddp.round.* spans join the digest
		points   int           // evaluation points the run must report
		timedOut bool          // the run must stop as a §4.4 timeout
		trimmed  bool          // the cell must lose coordinates to trimming
	}{
		{name: "trainer/baseline", run: trainer(Config{Workers: 3, Batch: 32, Epochs: 3, Seed: 5}), points: 3},
		{name: "trainer/rht-trim10-ef", run: trainer(Config{Workers: 3, Batch: 32, Epochs: 3, Seed: 5, RowSize: 1 << 8,
			Scheme: sp(quant.RHT, 1), TrimRate: 0.10, ErrorFeedback: true}), points: 3, trimmed: true},
		{name: "trainer/baseline-drop1-eval2", run: trainer(Config{Workers: 3, Batch: 32, Epochs: 3, Seed: 5,
			DropRate: 0.01, EvalEvery: 2}), points: 2},
		{name: "trainer/baseline-drop6-timeout", run: trainer(Config{Workers: 3, Batch: 32, Epochs: 3, Seed: 5,
			DropRate: 0.06}), timedOut: true},
		{name: "trainer/sd-trim20-spans", run: trainer(Config{Workers: 3, Batch: 32, Epochs: 2, Seed: 5, RowSize: 1 << 8,
			Scheme: sp(quant.SD, 1), TrimRate: 0.20}, WithRegistry(injectedReg)), reg: injectedReg, points: 2, trimmed: true},
		{name: "net/ps-trimmable-fattree4", run: netTrainer(
			Config{Workers: 4, Batch: 32, Epochs: 2, Seed: 5, RowSize: 1 << 8, Scheme: sp(quant.RHT, 1)},
			FabricConfig{Topology: "fattree", FatTreeK: 4, Link: slow, Queue: shallow,
				Mode: collective.Trimmable, Algorithm: collective.AlgParamServer}), points: 2, trimmed: true},
		{name: "net/direct-reliable-star", run: netTrainer(
			Config{Workers: 3, Batch: 32, Epochs: 2, Seed: 5, RowSize: 1 << 8, Scheme: sp(quant.RHT, 1)},
			FabricConfig{Link: slow, Queue: netsim.QueueConfig{CapacityBytes: 8 << 20, Mode: netsim.DropTail},
				Mode: collective.Reliable, Algorithm: collective.AlgDirect}), points: 2},
		// A ring gives every switch port one sender, so nothing queues: a
		// buffer under one ~1.1 kB data packet cuts each to its head.
		{name: "net/ring-trimmable-star", run: netTrainer(
			Config{Workers: 3, Batch: 32, Epochs: 2, Seed: 5, RowSize: 1 << 8, Scheme: sp(quant.RHT, 1)},
			FabricConfig{Link: slow, Queue: netsim.QueueConfig{CapacityBytes: 1 << 10, HighCapacityBytes: 1 << 20, Mode: netsim.TrimOverflow},
				Mode: collective.Trimmable, Algorithm: collective.AlgRing}), points: 2, trimmed: true},
		{name: "net/direct-trimmable-star-spans", run: netTrainer(
			Config{Workers: 3, Batch: 32, Epochs: 2, Seed: 5, RowSize: 1 << 8, Scheme: sp(quant.RHT, 1)},
			FabricConfig{Link: slow, Queue: shallow, Mode: collective.Trimmable},
			WithRegistry(fabricReg)), reg: fabricReg, points: 2, trimmed: true},
	}
	got := map[string]string{}
	for _, c := range cells {
		res, params, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Diverged != c.timedOut || res.TimedOut != c.timedOut || len(res.Points) != c.points {
			t.Fatalf("%s: diverged=%v timedOut=%v with %d points, want timedOut=%v with %d",
				c.name, res.Diverged, res.TimedOut, len(res.Points), c.timedOut, c.points)
		}
		if n := len(res.Points); n > 0 && c.trimmed != (res.Points[n-1].TrimFrac > 0) {
			t.Errorf("%s: trim fraction %v, want trimming=%v", c.name, res.Points[n-1].TrimFrac, c.trimmed)
		}
		var spans []obs.SpanPoint
		if c.reg != nil {
			spans = c.reg.Snapshot().Spans
			if len(spans) == 0 {
				t.Errorf("%s: registry recorded no spans", c.name)
			}
		}
		got[c.name] = runDigest(res, params, spans)
	}
	if *updateDDP {
		keys := make([]string, 0, len(got))
		for key := range got {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, key := range keys {
			fmt.Fprintf(&b, "%s %s\n", key, got[key])
		}
		if err := os.WriteFile(runGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(runGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if key, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[key] = digest
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d cells, the test has %d", runGolden, len(want), len(got))
	}
	for key, digest := range got {
		if want[key] != digest {
			t.Errorf("%s: digest %s, recorded %s", key, digest, want[key])
		}
	}
}
