package collective

import (
	"fmt"

	"trimgrad/internal/netsim"
)

// directPlan is rank i's part in the direct (all-to-all) all-reduce: it
// sends its gradient to every peer as message base+i and averages what it
// decodes, folding each peer's gradient as it completes. It is the
// algorithm of the paper's two-server prototype and is bandwidth-optimal
// for small worker counts. n message IDs.
func directPlan(n, dim int, base uint32, i int) plan {
	p := plan{seed: true, scale: true, phases: []phase{{"collective.allreduce_direct", atDone}},
		sends: []send{{to: peers(n, i), msg: base + uint32(i), in: true, hi: dim,
			on: atStart, label: fmt.Sprintf("send %d", i), dst: true}}}
	if n > 1 {
		g := group{fold: foldAdd, hi: dim, after: atStart}
		for _, j := range peers(n, i) {
			g.from = append(g.from, recv{j, base + uint32(j)})
		}
		p.groups = []group{g}
	}
	return p
}

// AllGather distributes every worker's shard to every other worker (§5.5's
// FSDP weight gathering): rank i sends its shard as message baseMsg+i.
// onDone delivers the shards indexed by rank; shards may differ in length.
func AllGather(epoch uint64, baseMsg uint32, workers []*Worker,
	shards [][]float32, onDone func(rank int, gathered [][]float32, at netsim.Time),
	onError func(rank int, err error)) error {
	n := len(workers)
	if n == 0 || len(shards) != n {
		return fmt.Errorf("collective: %d workers, %d shards", n, len(shards))
	}
	lens := make([]int, n)
	for i, sh := range shards {
		lens[i] = len(sh)
	}
	return run(epoch, workers, shards, gatherPlans(lens, baseMsg), func(rank int, _ []float32, slots [][]float32, at netsim.Time) {
		if onDone != nil {
			onDone(rank, slots, at)
		}
	}, onError)
}

// gatherPlans builds every rank's AllGather plan for shards of lengths lens.
func gatherPlans(lens []int, base uint32) []plan {
	n := len(lens)
	plans := make([]plan, n)
	for i := range plans {
		p := plan{seed: true, gather: true, phases: []phase{{"collective.allgather", atDone}},
			sends: []send{{to: peers(n, i), msg: base + uint32(i), in: true, hi: lens[i],
				on: atStart, label: fmt.Sprintf("send %d", i), dst: true}}}
		for _, j := range peers(n, i) {
			p.groups = append(p.groups, group{from: []recv{{j, base + uint32(j)}},
				fold: foldSlot, hi: lens[j], after: atStart})
		}
		plans[i] = p
	}
	return plans
}
