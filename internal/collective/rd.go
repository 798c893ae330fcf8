package collective

import "fmt"

// rdPlan is rank i's part in the classic recursive-doubling all-reduce:
// with m the largest power of two ≤ n and r = n − m, the first 2r ranks
// pre-combine in pairs (even rank hands its gradient to its odd neighbour
// and sits out), the m survivors run log₂(m) pairwise full-vector
// exchanges along hypercube dimensions, and the post phase returns the
// result to the ranks that sat out. Latency-optimal in rounds (log₂ n for
// powers of two), at the cost of sending the full vector every round.
// Rounds run in order: a round's send goes out once the previous round's
// receive has folded. Step s, sender j uses stepMsg(base, n, s, j):
// rdSteps(n)·n message IDs.
func rdPlan(n, dim int, base uint32, i int) plan {
	logm := rdSteps(n) - 2
	r := n - 1<<logm
	post := 1 + logm
	p := plan{seed: true, scale: true, phases: []phase{{"collective.rd", atDone}}}
	prev := atStart // the last receive group so far
	sendTo := func(peer, step int) {
		p.sends = append(p.sends, send{to: []int{peer}, msg: stepMsg(base, n, step, i), hi: dim,
			on: prev, label: fmt.Sprintf("rd send step %d", step)})
	}
	recvFrom := func(peer, step int, f fold) {
		p.groups = append(p.groups, group{from: []recv{{peer, stepMsg(base, n, step, peer)}},
			fold: f, hi: dim, after: prev})
		prev = len(p.groups) - 1
	}
	if i < 2*r && i%2 == 0 {
		// Pre: hand the gradient to the odd neighbour, then adopt the final
		// sum it returns in the post step.
		sendTo(i+1, 0)
		recvFrom(i+1, post, foldAdopt)
		return p
	}
	if i < 2*r {
		recvFrom(i-1, 0, foldAdd)
	}
	nr := rdNewRank(i, r)
	for k := 0; k < logm; k++ {
		peer := rdOldRank(nr^(1<<k), r)
		sendTo(peer, 1+k)
		recvFrom(peer, 1+k, foldAdd)
	}
	if i < 2*r {
		sendTo(i-1, post)
	}
	return p
}

// rdSteps returns the number of global message-id steps the schedule uses:
// one pre step, log₂(m) exchange steps, one post step.
func rdSteps(n int) int {
	logm := 0
	for m := 1; m*2 <= n; m *= 2 {
		logm++
	}
	return logm + 2
}

// rdNewRank maps a participating real rank into the contiguous power-of-two
// rank space; rdOldRank is its inverse.
func rdNewRank(i, r int) int {
	if i < 2*r {
		return i / 2
	}
	return i - r
}

func rdOldRank(nr, r int) int {
	if nr < r {
		return 2*nr + 1
	}
	return nr + r
}
