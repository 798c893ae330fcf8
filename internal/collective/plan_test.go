package collective

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

// The plans checked as data: every operation's per-rank plans, built at
// n = 1…33 without a fabric, must pair every send with one receive, keep
// their message ids inside the operation's span, run to completion under
// any completion order, compute the exact result, and move exactly the
// bytes the operation's cost model says.

const planBase = 100

// planCase is one operation's plans over n ranks and what they must do.
type planCase struct {
	plans []plan
	in    [][]float32
	span  uint32                        // message ids: [planBase, planBase+span)
	cost  func(i int) (sent, recvd int) // coordinates rank i sends and receives
	want  func(i int) [][]float32       // rank i's outcome: its accumulator, or every slot
	out   func(r *absRank) [][]float32  // what the abstract run produced for r
}

func planInputs(n int, lens func(i int) int) [][]float32 {
	in := make([][]float32, n)
	for i := range in {
		in[i] = intGrad(uint64(7*n+i), lens(i))
	}
	return in
}

func planCases(t *testing.T, n int) map[string]planCase {
	t.Helper()
	const dim = 100 // ≥ 33, so every ring chunk is non-empty, and uneven for most n
	cases := map[string]planCase{}
	in := planInputs(n, func(int) int { return dim })
	mean := exactMean(in)
	acc := func(r *absRank) [][]float32 { return [][]float32{r.acc} }
	each := func(sent, recvd int) func(int) (int, int) {
		return func(int) (int, int) { return sent, recvd }
	}
	for _, alg := range Algorithms() {
		plans, err := allReducePlans(alg, n, dim, planBase)
		if err != nil {
			t.Fatal(err)
		}
		c := planCase{plans: plans, in: in, span: MsgSpan(alg, n), out: acc,
			want: func(int) [][]float32 { return [][]float32{mean} }}
		switch alg {
		case AlgDirect:
			c.cost = each((n-1)*dim, (n-1)*dim)
		case AlgRing:
			// Each rank sends every chunk but its right neighbour's during
			// reduce-scatter and every chunk but the one two to its right
			// during all-gather: 2(n−1)/n·S up to chunk rounding.
			off := chunkOffsets(dim, n)
			size := func(c int) int { c = mod(c, n); return off[c+1] - off[c] }
			c.cost = func(i int) (int, int) {
				if n == 1 {
					return 0, 0
				}
				return 2*dim - size(i+1) - size(i+2), 2*dim - size(i) - size(i+1)
			}
		case AlgRecursiveDoubling:
			logm := rdSteps(n) - 2
			r := n - 1<<logm
			c.cost = func(i int) (int, int) {
				switch {
				case i < 2*r && i%2 == 0: // pre: hand over, take the result back
					return dim, dim
				case i < 2*r: // pre and post folds around log₂ m exchanges
					return (logm + 1) * dim, (logm + 1) * dim
				}
				return logm * dim, logm * dim
			}
		case AlgHierarchical:
			g := int(math.Ceil(math.Sqrt(float64(n))))
			off := chunkOffsets(n, g)
			c.cost = func(i int) (int, int) {
				j := slices.Index(off, i)
				if j < 0 { // a member: its gradient up, the average back
					return dim, dim
				}
				// A leader: its members' gradients in and the average out,
				// its group sum out to and the others' in from g−1 leaders.
				members := off[j+1] - off[j] - 1
				return (g - 1 + members) * dim, (g - 1 + members) * dim
			}
		case AlgParamServer:
			c.cost = func(i int) (int, int) {
				if i == 0 {
					return (n - 1) * dim, (n - 1) * dim
				}
				return dim, dim
			}
		}
		cases[alg.String()] = c
	}

	lens := make([]int, n)
	total := 0
	for i := range lens {
		lens[i] = dim + 3*i
		total += lens[i]
	}
	shards := planInputs(n, func(i int) int { return lens[i] })
	cases["allgather"] = planCase{plans: gatherPlans(lens, planBase), in: shards, span: uint32(n),
		cost: func(i int) (int, int) { return (n - 1) * lens[i], total - lens[i] },
		want: func(int) [][]float32 { return shards },
		out:  func(r *absRank) [][]float32 { return r.slots },
	}

	return cases
}

// verifyPlans checks c's plans as data, then runs them abstractly under
// seeds completion orders.
func verifyPlans(c planCase, seeds int) error {
	n := len(c.plans)
	for i, p := range c.plans {
		seen := map[uint32]bool{}
		sent, recvd := 0, 0
		for _, s := range p.sends {
			if seen[s.msg] {
				return fmt.Errorf("rank %d sends message %d twice", i, s.msg)
			}
			seen[s.msg] = true
			if s.msg < planBase || s.msg >= planBase+c.span {
				return fmt.Errorf("rank %d sends message %d outside [%d, %d)", i, s.msg, planBase, planBase+c.span)
			}
			for _, d := range s.to {
				var hits []group
				for _, g := range c.plans[d].groups {
					if slices.Contains(g.from, recv{i, s.msg}) {
						hits = append(hits, g)
					}
				}
				if len(hits) != 1 {
					return fmt.Errorf("rank %d's message %d to rank %d matches %d receives", i, s.msg, d, len(hits))
				}
				if hits[0].hi-hits[0].lo != s.hi-s.lo {
					return fmt.Errorf("rank %d's message %d carries %d values, rank %d decodes %d",
						i, s.msg, s.hi-s.lo, d, hits[0].hi-hits[0].lo)
				}
			}
			sent += (s.hi - s.lo) * len(s.to)
		}
		expected := map[recv]bool{}
		for _, g := range p.groups {
			for _, r := range g.from {
				if expected[r] {
					return fmt.Errorf("rank %d expects message %d from rank %d twice", i, r.msg, r.src)
				}
				expected[r] = true
				matches := 0
				for _, s := range c.plans[r.src].sends {
					if s.msg == r.msg && slices.Contains(s.to, i) {
						matches++
					}
				}
				if matches != 1 {
					return fmt.Errorf("rank %d's receive of message %d from rank %d matches %d sends", i, r.msg, r.src, matches)
				}
			}
			recvd += (g.hi - g.lo) * len(g.from)
		}
		if ws, wr := c.cost(i); sent != ws || recvd != wr {
			return fmt.Errorf("rank %d of %d moves %d out and %d in, the cost model says %d and %d", i, n, sent, recvd, ws, wr)
		}
	}
	for seed := 0; seed < seeds; seed++ {
		ranks, err := absRun(c.plans, c.in, uint64(seed))
		if err != nil {
			return fmt.Errorf("completion order %d: %v", seed, err)
		}
		for i, r := range ranks {
			got, want := c.out(r), c.want(i)
			if !slices.EqualFunc(got, want, slices.Equal[[]float32]) {
				return fmt.Errorf("completion order %d: rank %d computes the wrong result", seed, i)
			}
		}
	}
	return nil
}

// absRank is one rank of the abstract run: the executor's rules with
// instant delivery, in an order a seed picks.
type absRank struct {
	p        *plan
	acc, ext []float32
	slots    [][]float32
	sums     map[int][]float32
	want     map[recv]int
	left     []int
	pending  int
	held     [][]absMsg
	done     bool
}

type absMsg struct {
	src, dst int
	msg      uint32
	vals     []float32
	g        int // the receiving group, once delivered
}

// absRun runs plans on inputs in, delivering one in-flight message at a
// time in an order drawn from seed, and fails if a message matches no
// receive or a rank never completes.
func absRun(plans []plan, in [][]float32, seed uint64) ([]*absRank, error) {
	n := len(plans)
	rng := xrand.New(seed)
	ranks := make([]*absRank, n)
	var flight []absMsg
	fire := func(i, on int) {
		r := ranks[i]
		for _, s := range r.p.sends {
			if s.on != on {
				continue
			}
			src := r.acc
			if s.in {
				src = in[i]
			}
			for _, d := range s.to {
				flight = append(flight, absMsg{src: i, dst: d, msg: s.msg, vals: slices.Clone(src[s.lo:s.hi])})
			}
		}
	}
	finish := func(i int) {
		r := ranks[i]
		r.done = true
		if len(r.p.groups) > 0 {
			if r.ext != nil {
				vecmath.Add(r.acc, r.ext)
			}
			if r.p.addIn {
				vecmath.Add(r.acc, in[i])
			}
			if r.p.scale {
				vecmath.Scale(r.acc, 1/float32(n))
			}
		}
		if r.slots != nil {
			r.slots[i] = r.acc
		}
		fire(i, atDone)
	}
	var fold func(m absMsg)
	fold = func(m absMsg) {
		r, g := ranks[m.dst], m.g
		gr := r.p.groups[g]
		r.left[g]--
		vals := m.vals
		if gr.fold == foldSum {
			if r.sums[g] == nil {
				r.sums[g] = make([]float32, len(vals))
			}
			vecmath.Add(r.sums[g], vals)
			if r.left[g] > 0 {
				return
			}
			vals = r.sums[g]
		}
		buf := &r.acc
		if gr.ext {
			buf = &r.ext
		}
		switch gr.fold {
		case foldAdd:
			if *buf == nil {
				*buf = make([]float32, gr.hi)
			}
			vecmath.Add((*buf)[gr.lo:gr.hi], vals)
		case foldSlot:
			r.slots[gr.from[0].src] = vals
		default:
			if *buf == nil {
				*buf = vals
			} else {
				copy((*buf)[gr.lo:gr.hi], vals)
			}
		}
		if r.left[g] > 0 {
			return
		}
		r.pending--
		fire(m.dst, g)
		held := r.held[g]
		r.held[g] = nil
		for _, h := range held {
			fold(h)
		}
		if r.pending == 0 && !r.done {
			finish(m.dst)
		}
	}
	for i := range plans {
		p := &plans[i]
		r := &absRank{p: p, want: map[recv]int{}, left: make([]int, len(p.groups)), pending: len(p.groups),
			held: make([][]absMsg, len(p.groups)), sums: map[int][]float32{}}
		if p.seed || len(p.groups) == 0 {
			r.acc = slices.Clone(in[i])
		}
		if p.gather {
			r.slots = make([][]float32, n)
		}
		for g, gr := range p.groups {
			r.left[g] = len(gr.from)
			for _, f := range gr.from {
				r.want[f] = g
			}
		}
		ranks[i] = r
		fire(i, atStart)
		if len(p.groups) == 0 {
			finish(i)
		}
	}
	for len(flight) > 0 {
		k := int(uint32(rng.Uint64()>>32) % uint32(len(flight)))
		m := flight[k]
		flight = slices.Delete(flight, k, k+1)
		r := ranks[m.dst]
		g, ok := r.want[recv{m.src, m.msg}]
		if !ok {
			return nil, fmt.Errorf("rank %d receives message %d from rank %d it does not expect", m.dst, m.msg, m.src)
		}
		delete(r.want, recv{m.src, m.msg})
		m.g = g
		if a := r.p.groups[g].after; a != atStart && r.left[a] > 0 {
			r.held[a] = append(r.held[a], m)
			continue
		}
		fold(m)
	}
	for i, r := range ranks {
		if !r.done {
			return nil, fmt.Errorf("deadlock: rank %d of %d never completes (%d groups pending)", i, n, r.pending)
		}
	}
	return ranks, nil
}

// TestPlansAsData checks every operation's plans at n = 1…33.
func TestPlansAsData(t *testing.T) {
	for n := 1; n <= 33; n++ {
		for name, c := range planCases(t, n) {
			if err := verifyPlans(c, 50); err != nil {
				t.Errorf("%s n=%d: %v", name, n, err)
			}
		}
	}
}

// TestPlanCheckBites: the checks above fail on two seeded schedule bugs —
// an off-by-one in the ring's all-gather chunk (every rank forwards the
// chunk before the one it owns reduced, and its neighbour folds that chunk)
// and a recursive-doubling schedule whose post fold never sends the result
// back to the rank that sat out.
func TestPlanCheckBites(t *testing.T) {
	for _, n := range []int{2, 3, 5, 6, 7} {
		cases := planCases(t, n)

		ring := cases["ring"]
		off := chunkOffsets(100, n)
		prev := func(lo int) (int, int) {
			c := mod(slices.Index(off, lo)-1, n)
			return off[c], off[c+1]
		}
		for i := range ring.plans {
			for s := n - 1; s < 2*n-2; s++ {
				p := &ring.plans[i]
				p.sends[s].lo, p.sends[s].hi = prev(p.sends[s].lo)
				p.groups[s].lo, p.groups[s].hi = prev(p.groups[s].lo)
			}
		}
		if err := verifyPlans(ring, 5); err == nil {
			t.Errorf("ring n=%d: an all-gather chunk off by one passes", n)
		}

		if n&(n-1) == 0 {
			continue // a power of two has no post fold
		}
		rd := cases["rd"]
		post := stepMsg(planBase, n, rdSteps(n)-1, 1)
		p := &rd.plans[1]
		p.sends = slices.DeleteFunc(p.sends, func(s send) bool { return s.msg == post })
		if err := verifyPlans(rd, 5); err == nil {
			t.Errorf("rd n=%d: a missing post send passes", n)
		}
	}
}
