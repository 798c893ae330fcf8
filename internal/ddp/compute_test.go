package ddp

import (
	"math"
	"testing"

	"trimgrad/internal/ml"
)

// computeShape is train_k4_ps's compute half: 8 workers, batch 64, the
// 32-256-128-30 MLP.
func computeShape(t testing.TB) (model *ml.Model, shards []*ml.Dataset, cfg Config) {
	t.Helper()
	train, _ := ml.Synthetic(ml.SyntheticConfig{Classes: 30, Dim: 32, Train: 8 * 100, Test: 1, Noise: 2.4, Spread: 2.0, Seed: 7})
	cfg = Config{Workers: 8, Batch: 64, Seed: 3}.withDefaults()
	return ml.NewMLP(cfg.Seed, train.Dim, 256, 128, train.Classes), train.Shard(cfg.Workers), cfg
}

// TestComputeGradsBitIdenticalAcrossWorkers: however many executors share
// a round's passes — one, fewer than, as many as and more than this box's
// cores — every worker's gradient and the epoch loss the trainers add up
// from losses come out the same bits, over a full and a ragged round and
// with the parameters stepped in between. The race pass runs it too.
func TestComputeGradsBitIdenticalAcrossWorkers(t *testing.T) {
	type outcome struct {
		grads     [][]float32
		epochLoss float64
	}
	run := func(workers int) outcome {
		model, shards, cfg := computeShape(t)
		replicas, grads := newReplicas(model, cfg.Workers)
		losses := make([]float64, cfg.Workers)
		opt := ml.NewSGD(cfg.LR, cfg.Momentum)
		var out outcome
		for epoch := 1; epoch <= 2; epoch++ {
			batches := epochBatches(shards, cfg, epoch)
			if len(batches) != 2 || len(batches[1][0].x) == cfg.Batch {
				t.Fatalf("want a full and a ragged round, got %d rounds", len(batches))
			}
			for _, round := range batches {
				computeGrads(replicas, round, losses, workers)
				for _, loss := range losses {
					out.epochLoss += loss
				}
				for _, g := range grads {
					out.grads = append(out.grads, append([]float32(nil), g...))
				}
				opt.Step(model.Params(), grads[0])
			}
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 3, 8} {
		got := run(workers)
		if math.Float64bits(got.epochLoss) != math.Float64bits(want.epochLoss) {
			t.Errorf("workers=%d: epoch loss %v, serial %v", workers, got.epochLoss, want.epochLoss)
		}
		for i := range want.grads {
			for j := range want.grads[i] {
				if math.Float32bits(got.grads[i][j]) != math.Float32bits(want.grads[i][j]) {
					t.Fatalf("workers=%d: gradient %d word %d = %g, serial %g", workers, i, j, got.grads[i][j], want.grads[i][j])
				}
			}
		}
	}
}

// TestAllocGuardComputeRound: a warmed round of the benchmark's shape
// allocates what eight loss calls and one fan-out cost — no batch matrix, no
// gradient copy — so the count does not grow with batch size or layer width.
func TestAllocGuardComputeRound(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are a property of the uninstrumented build")
	}
	const maxAllocs = 36
	model, shards, cfg := computeShape(t)
	replicas, _ := newReplicas(model, cfg.Workers)
	losses := make([]float64, cfg.Workers)
	round := epochBatches(shards, cfg, 1)[0]
	allocs := testing.AllocsPerRun(20, func() { computeGrads(replicas, round, losses, 0) })
	t.Logf("%.0f allocations per round", allocs)
	if allocs > maxAllocs {
		t.Errorf("a computeGrads round allocates %.0f times, bound %d", allocs, maxAllocs)
	}
}
