package exp

import (
	"fmt"
	"io"

	"trimgrad/internal/collective"
	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/scenario"
	"trimgrad/internal/transport"
	"trimgrad/internal/vecmath"
)

// runAggSweep is the aggregation-placement sweep (E12): every all-reduce
// algorithm crossed with in-network aggregation on/off, under a shallow
// trimming switch. The matrix shows where each schedule's congestion
// forms and which ones an aggregating switch actually helps: the
// parameter-server incast carries shared aggregation keys, so the switch
// folds its flows in flight (merges > 0, queue pressure and trim fraction
// collapse), while peer-to-peer schedules never present mergeable keys
// and pass through an aggregating switch unchanged. The decode-error
// column doubles as an end-to-end check of the survivor-prefix
// intersection rule: aggregation must not cost accuracy beyond what
// trimming alone already cost.
func runAggSweep(w io.Writer, o Options) error {
	n := 8
	dim := 1 << 15
	if o.Quick {
		n = 4
		dim = 1 << 13
	}
	schemes := []quant.Params{
		{Scheme: quant.Sign},
		{Scheme: quant.RHT},
	}
	if o.Quick {
		schemes = schemes[:1]
	}

	exact := make([]float32, dim)
	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = scenario.Gradient(uint64(60+i)+o.Seed, dim)
		vecmath.Add(exact, grads[i])
	}
	vecmath.Scale(exact, 1/float32(n))

	t := NewTable("Aggregation placement: collective x switch aggregation (E12)",
		"scheme", "collective", "switch_agg", "completion_ms", "trim_frac",
		"switch_merges", "trimmed_pkts", "nmse", "completed")
	for _, p := range schemes {
		for _, alg := range collective.Algorithms() {
			for _, agg := range []bool{false, true} {
				row, err := runAggSweepCell(p, alg, agg, n, dim, grads, exact, o)
				if err != nil {
					return fmt.Errorf("exp: aggsweep %s/%s: %w", p.Scheme, alg, err)
				}
				t.Add(row...)
			}
		}
	}
	return emit(w, o, t)
}

// runAggSweepCell runs one matrix cell: a single all-reduce round of alg
// over a fresh star fabric whose switch trims under pressure and, when
// agg is set, folds matching trimmable packets at the queue.
func runAggSweepCell(p quant.Params, alg collective.Algorithm, agg bool,
	n, dim int, grads [][]float32, exact []float32, o Options) ([]any, error) {
	sim := netsim.NewSim()
	q, _ := queueFor(true, 48<<10, 1<<20)
	q.AggregateTrimmable = agg
	star, err := netsim.FabricSpec{Kind: "star", N: n, Link: link10G, Queue: q}.Build(sim)
	if err != nil {
		return nil, err
	}
	workers, err := collective.Bind(star.Hosts, transport.Config{},
		collective.WithConfig(core.Config{Params: p, RowSize: 1 << 12}),
		collective.WithMode(collective.Trimmable))
	if err != nil {
		return nil, err
	}
	for _, w := range workers {
		w.Deadline = 10 * netsim.Second
	}
	start := sim.Now()
	outs, err := collective.RunAllReduce(sim, 20*netsim.Second, alg, 1, 100, workers, grads)
	if err != nil {
		return nil, err
	}

	completed := 0
	var nmse float64
	var lastDone netsim.Time
	trimmed, total := 0, 0
	for rank, o := range outs {
		if o.Avg == nil {
			continue
		}
		completed++
		lastDone = max(lastDone, o.At)
		nmse += vecmath.NMSE(exact, o.Avg)
		trimmed += workers[rank].AggStats.TrimmedCoords
		total += workers[rank].AggStats.TotalCoords
	}
	if completed > 0 {
		nmse /= float64(completed)
	}
	ports := netsim.PortTotals(star.Switches())
	trimFrac := 0.0
	if total > 0 {
		trimFrac = float64(trimmed) / float64(total)
	}
	return []any{
		quant.MustNew(p).Name(), alg.String(), agg,
		ms(lastDone - start),
		trimFrac, ports.Aggregated, ports.Trimmed, nmse,
		fmt.Sprintf("%d/%d", completed, n),
	}, nil
}

func init() {
	register(Runner{"aggsweep", "aggregation placement: collective x switch agg (E12)", runAggSweep})
}
