package collective

import "trimgrad/internal/netsim"

// mod is the mathematical modulus: the result is always in [0, n) even for
// negative a, unlike Go's % operator. Every algorithm's neighbour/step
// arithmetic (ring left-neighbour, recursive-doubling partner, hierarchical
// group walk) uses it instead of re-deriving the (a%n+n)%n dance locally.
func mod(a, n int) int { return ((a % n) + n) % n }

// chunkOffsets returns the n+1 contiguous chunk boundaries that split a
// dim-length vector as evenly as possible: chunk c spans
// [off[c], off[c+1]). The boundary formula c·dim/n matches what ring
// all-reduce has always used, so chunk layouts stay bit-compatible.
func chunkOffsets(dim, n int) []int {
	off := make([]int, n+1)
	for c := 0; c <= n; c++ {
		off[c] = c * dim / n
	}
	return off
}

// hostIDs returns every worker's node id, indexed by rank.
func hostIDs(workers []*Worker) []netsim.NodeID {
	ids := make([]netsim.NodeID, len(workers))
	for i, w := range workers {
		ids[i] = w.Stack.Host().ID()
	}
	return ids
}

// peers returns every rank of n but skip, in rank order.
func peers(n, skip int) []int {
	out := make([]int, 0, n)
	for r := 0; r < n; r++ {
		if r != skip {
			out = append(out, r)
		}
	}
	return out
}

// stepMsg is the message id rank sender uses at global step step of a
// stepped schedule (ring, rd): base + step·n + sender.
func stepMsg(base uint32, n, step, sender int) uint32 {
	return base + uint32(step)*uint32(n) + uint32(sender)
}
