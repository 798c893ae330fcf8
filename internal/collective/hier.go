package collective

import (
	"fmt"
	"math"
)

// hierPlan is rank i's part in the two-level all-reduce rack-scale
// deployments use: workers are split into ⌈√n⌉ groups of contiguous ranks;
// each member sends its gradient to its group's leader (the group's first
// rank) as base+i; a leader folds its members' gradients, sends the group
// sum to every other leader as base+n+i once its members are in, folds the
// other leaders' sums into its second buffer as they complete — a fast
// neighbouring group does not wait for a slow one — and sends the average
// to its members as base+2n+i after it completes. Leaf traffic stays local
// to the group while only ⌈√n⌉ flows cross the core, which is exactly
// where the aggregation-placement sweep puts its switch. 3n message IDs.
func hierPlan(n, dim int, base uint32, i int) plan {
	g := int(math.Ceil(math.Sqrt(float64(n))))
	off := chunkOffsets(n, g)
	j := 0
	for off[j+1] <= i {
		j++
	}
	un, leader := uint32(n), off[j]
	if i != leader {
		return plan{
			groups: []group{{from: []recv{{leader, base + 2*un + uint32(leader)}}, fold: foldAdopt, hi: dim, after: atStart}},
			sends: []send{{to: []int{leader}, msg: base + uint32(i), in: true, hi: dim,
				on: atStart, label: fmt.Sprintf("hier reduce %d→%d", i, leader)}},
			phases: []phase{{"collective.hier", atDone}},
		}
	}
	p := plan{seed: true, scale: true}
	var members, leaders []int
	for m := i + 1; m < off[j+1]; m++ {
		members = append(members, m)
	}
	for k := 0; k < g; k++ {
		if k != j {
			leaders = append(leaders, off[k])
		}
	}
	exchange := atStart
	if len(members) > 0 {
		gr := group{fold: foldAdd, hi: dim, after: atStart}
		for _, m := range members {
			gr.from = append(gr.from, recv{m, base + uint32(m)})
		}
		p.groups = append(p.groups, gr)
		p.phases = append(p.phases, phase{"collective.hier.reduce", 0})
		exchange = 0
	}
	if len(leaders) > 0 {
		gr := group{fold: foldAdd, ext: true, hi: dim, after: atStart}
		for _, l := range leaders {
			gr.from = append(gr.from, recv{l, base + un + uint32(l)})
		}
		p.groups = append(p.groups, gr)
	}
	p.sends = []send{
		{to: leaders, msg: base + un + uint32(i), hi: dim, on: exchange, label: fmt.Sprintf("hier exchange %d", i), dst: true},
		{to: members, msg: base + 2*un + uint32(i), hi: dim, on: atDone, label: fmt.Sprintf("hier broadcast %d", i), dst: true},
	}
	p.phases = append(p.phases, phase{"collective.hier.exchange", atDone})
	return p
}
