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

// Broadcast sends root's tensor to every other worker as message msg.
// onDone fires for every non-root worker with its decoded copy, and for
// root with a copy once its sends are issued. A destination that misses
// the broadcast reports its own deadline error; the root never errs.
func Broadcast(epoch uint64, msg uint32, workers []*Worker, root int,
	tensor []float32, onDone func(rank int, copy []float32, at netsim.Time),
	onError func(rank int, err error)) error {
	n := len(workers)
	if root < 0 || root >= n {
		return fmt.Errorf("collective: bad root %d", root)
	}
	in := make([][]float32, n)
	in[root] = tensor
	return run(epoch, workers, in, broadcastPlans(n, len(tensor), msg, root), func(rank int, acc []float32, _ [][]float32, at netsim.Time) {
		if onDone != nil {
			onDone(rank, acc, at)
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

// broadcastPlans builds every rank's Broadcast plan: the root sends at
// start and, receiving nothing, completes at once.
func broadcastPlans(n, dim int, msg uint32, root int) []plan {
	plans := make([]plan, n)
	for i := range plans {
		plans[i] = plan{groups: []group{{from: []recv{{root, msg}}, fold: foldAdopt, hi: dim, after: atStart}},
			phases: []phase{{"collective.broadcast", atDone}}}
	}
	plans[root] = plan{sends: []send{{to: peers(n, root), msg: msg, in: true, hi: dim,
		on: atStart, label: "broadcast"}}}
	return plans
}
