package collective

import "fmt"

// ringPlan is rank i's part in the bandwidth-optimal ring all-reduce: n−1
// reduce-scatter steps followed by n−1 all-gather steps over contiguous
// chunks of the gradient. At step s it sends one chunk to its right
// neighbour as stepMsg(base, n, s, i) — step 0 at start, step s+1 once it
// has folded the chunk of step s from its left neighbour (added during
// reduce-scatter, adopted during all-gather), in step order. Each hop
// decodes the (possibly trimmed) incoming chunk, accumulates, and
// re-encodes, so in-network compression can act independently at every
// congested hop of the ring. (2n−2)·n message IDs; the gradient length
// must be at least n.
func ringPlan(n, dim int, base uint32, i int) plan {
	off := chunkOffsets(dim, n)
	left, right := mod(i-1, n), mod(i+1, n)
	p := plan{seed: true, scale: true, phases: []phase{
		{"collective.ring.reduce_scatter", n - 2}, {"collective.ring.all_gather", atDone}}}
	for s := 0; s < 2*n-2; s++ {
		c, rc := ringChunk(n, s, i), ringChunk(n, s, left)
		f := foldAdd
		if s >= n-1 {
			f = foldAdopt
		}
		// Step s's send and fold both wait for step s−1's fold (atStart at s = 0).
		p.sends = append(p.sends, send{to: []int{right}, msg: stepMsg(base, n, s, i), lo: off[c], hi: off[c+1],
			on: s - 1, label: fmt.Sprintf("ring send step %d", s)})
		p.groups = append(p.groups, group{from: []recv{{left, stepMsg(base, n, s, left)}},
			fold: f, lo: off[rc], hi: off[rc+1], after: s - 1})
	}
	return p
}

// ringChunk returns which chunk rank i sends at global step s.
func ringChunk(n, s, i int) int {
	if s < n-1 {
		return mod(i-s, n) // reduce-scatter
	}
	return mod(i+1-(s-(n-1)), n) // all-gather
}
