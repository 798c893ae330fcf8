package collective

import (
	"fmt"

	"trimgrad/internal/netsim"
	"trimgrad/internal/vecmath"
)

// A plan is one rank's part in a collective operation, written as data:
// the receive groups it waits for and how each folds, the sends it issues
// and when, and how it finishes. Every operation is a builder that makes
// one plan per rank; run executes them all.
type plan struct {
	seed   bool    // the accumulator starts as a copy of the rank's input; otherwise a fold adopts it
	gather bool    // the outcome is one slot per rank (AllGather), the rank's own slot its accumulator
	addIn  bool    // add the rank's input into the accumulator at the end
	scale  bool    // then divide the accumulator by n
	groups []group // what the rank receives
	sends  []send  // what it sends
	phases []phase // the spans it records, in order: each starts where the previous ended
}

// A group is a set of receives folded the same way. It finishes when every
// one of them has folded.
type group struct {
	from []recv
	fold fold
	ext  bool // target the second buffer, which starts at zero and is added into the accumulator at the end
	// lo, hi is the target region; every receive decodes hi−lo values. A
	// foldSlot group's region is the shard length.
	lo, hi int
	// after is the group that must finish before this one folds anything:
	// a receive that completes earlier is held, and folded, in completion
	// order, when after finishes. atStart: fold on arrival.
	after int
}

// recv is one expected message: msg from rank src.
type recv struct {
	src int
	msg uint32
}

type fold uint8

const (
	foldAdd   fold = iota // add the decoded values into the region
	foldAdopt             // the decoded values replace the region
	foldSlot              // store the decoded shard as the sender's slot
	foldSum               // one SumDecoder sums every receive of the group; the sum replaces the region
)

// A send encodes the accumulator's region lo, hi (the rank's input's, when
// in) once as message msg and ships it to every rank in to, in order.
type send struct {
	to     []int
	msg    uint32
	in     bool
	lo, hi int
	on     int    // fired when group on finishes, or atStart, or atDone
	label  string // names the send in a transport error
	dst    bool   // the error names the destination too: "label→dst"
}

// A phase is a span named name that ends when group end finishes (atDone:
// when the rank completes).
type phase struct {
	name string
	end  int
}

// Triggers, beside a group index.
const (
	atStart = -1 // when the plan is installed
	atDone  = -2 // after the rank reports its outcome
)

// run executes plans[i] on workers[i], with in[i] as rank i's input (read
// only: it is the caller's). For each rank in rank order it registers the
// plan's sum decoders, installs the completion hook, arms the deadline and
// fires the start sends — top-level scheduling assigns the causal keys, so
// that order is part of every digest. report receives each rank's one
// outcome unless onError does.
func run(epoch uint64, workers []*Worker, in [][]float32, plans []plan,
	report func(rank int, acc []float32, slots [][]float32, at netsim.Time),
	onError func(rank int, err error)) error {
	ids := hostIDs(workers)
	start := workers[0].Stack.Host().Sim().Now()
	for i := range plans {
		p := &plans[i]
		x := &rankRun{
			w: workers[i], rank: i, n: len(workers), epoch: epoch, ids: ids, in: in[i], p: p,
			want: make(map[decKey]int), left: make([]int, len(p.groups)), pending: len(p.groups),
			held: make([][]arrival, len(p.groups)), mark: start, report: report, onError: onError,
		}
		if p.seed || len(p.groups) == 0 {
			x.acc = append([]float32(nil), in[i]...)
		}
		if p.gather {
			x.slots = make([][]float32, len(workers))
		}
		for g, gr := range p.groups {
			x.left[g] = len(gr.from)
			for _, r := range gr.from {
				x.want[decKey{ids[r.src], r.msg}] = g
			}
			if gr.fold == foldSum {
				if err := x.w.registerSum(gr.from[0].msg, len(gr.from)); err != nil {
					return err
				}
			}
		}
		x.w.onComplete = x.complete
		if len(p.groups) > 0 {
			x.w.armDeadline(func() bool { return x.done }, x.fail)
		}
		if err := x.fire(atStart); err != nil {
			return err
		}
		if len(p.groups) == 0 {
			x.finish(start)
		}
	}
	return nil
}

// rankRun is one rank's progress through its plan. Only that rank's host
// touches it.
type rankRun struct {
	w        *Worker
	rank, n  int
	epoch    uint64
	ids      []netsim.NodeID
	in       []float32
	p        *plan
	acc, ext []float32
	slots    [][]float32
	want     map[decKey]int // receives not yet completed → their group
	left     []int          // receives each group still needs
	pending  int            // groups not finished
	held     [][]arrival    // per group: completions waiting for it to finish
	phase    int            // next phase to record
	mark     netsim.Time    // where that phase starts
	done     bool
	failed   bool
	report   func(rank int, acc []float32, slots [][]float32, at netsim.Time)
	onError  func(rank int, err error)
}

// arrival is a completed receive of group g held until its after group
// finishes.
type arrival struct {
	g   int
	src netsim.NodeID
	msg uint32
	at  netsim.Time
}

// complete is the rank's completion hook: an expected receive folds at once
// unless its group's after group has not finished, which holds it.
func (x *rankRun) complete(src netsim.NodeID, msg uint32, at netsim.Time) {
	k := decKey{src, msg}
	g, ok := x.want[k]
	if !ok {
		return
	}
	delete(x.want, k)
	if a := x.p.groups[g].after; a != atStart && x.left[a] > 0 {
		x.held[a] = append(x.held[a], arrival{g, src, msg, at})
		return
	}
	x.fold(g, src, msg, at)
}

// fold decodes one completed receive of group g into its target; a sum
// group decodes once, when its last receive is in.
func (x *rankRun) fold(g int, src netsim.NodeID, msg uint32, at netsim.Time) {
	gr := &x.p.groups[g]
	x.left[g]--
	var dec []float32
	var err error
	if gr.fold == foldSum {
		if x.left[g] > 0 {
			return
		}
		dec, err = x.w.reconstructSum(msg, gr.hi-gr.lo)
	} else {
		dec, err = x.w.reconstruct(src, msg, gr.hi-gr.lo)
	}
	if err != nil {
		x.fail(err)
		return
	}
	buf := &x.acc
	if gr.ext {
		buf = &x.ext
	}
	switch gr.fold {
	case foldAdd:
		if *buf == nil {
			*buf = make([]float32, gr.hi)
		}
		vecmath.Add((*buf)[gr.lo:gr.hi], dec)
	case foldSlot:
		x.slots[gr.from[0].src] = dec
	default:
		if *buf == nil {
			*buf = dec
		} else {
			copy((*buf)[gr.lo:gr.hi], dec)
		}
	}
	if x.left[g] == 0 {
		x.finished(g, at)
	}
}

// finished records the phase group g ends, fires the sends it triggers,
// folds the receives held for it, and completes the rank after its last
// group. at is the completion time of the receive that finished it.
func (x *rankRun) finished(g int, at netsim.Time) {
	x.pending--
	x.endPhase(g, at)
	if err := x.fire(g); err != nil {
		x.fail(err)
		return
	}
	held := x.held[g]
	x.held[g] = nil
	for _, a := range held {
		if x.failed {
			return
		}
		x.fold(a.g, a.src, a.msg, a.at)
	}
	if x.pending == 0 && !x.done && !x.failed {
		x.finish(at)
	}
}

// finish reports the rank's outcome, then fires its post-completion sends.
// A rank that receives nothing (n == 1) reports a copy of its input,
// unscaled, and records no span.
func (x *rankRun) finish(at netsim.Time) {
	x.done = true
	if len(x.p.groups) > 0 {
		if x.ext != nil {
			vecmath.Add(x.acc, x.ext)
		}
		if x.p.addIn {
			vecmath.Add(x.acc, x.in)
		}
		if x.p.scale {
			vecmath.Scale(x.acc, 1/float32(x.n))
		}
		x.endPhase(atDone, at)
	}
	if x.slots != nil {
		x.slots[x.rank] = x.acc
	}
	x.report(x.rank, x.acc, x.slots, at)
	// Their failures reach fail, which done makes a no-op: a destination
	// that misses them reports its own deadline error.
	if err := x.fire(atDone); err != nil {
		x.fail(err)
	}
}

func (x *rankRun) endPhase(end int, at netsim.Time) {
	if x.phase < len(x.p.phases) && x.p.phases[x.phase].end == end {
		x.w.span(x.p.phases[x.phase].name, x.mark, at)
		x.phase++
		x.mark = at
	}
}

// fire issues the sends triggered by on.
func (x *rankRun) fire(on int) error {
	for k := range x.p.sends {
		s := &x.p.sends[k]
		if s.on != on {
			continue
		}
		src := x.acc
		if s.in {
			src = x.in
		}
		dsts := make([]netsim.NodeID, len(s.to))
		for j, r := range s.to {
			dsts[j] = x.ids[r]
		}
		err := x.w.sendAll(dsts, x.epoch, s.msg, src[s.lo:s.hi], func(dst netsim.NodeID, err error) {
			label := s.label
			if s.dst {
				label = fmt.Sprintf("%s→%d", label, dst)
			}
			x.fail(fmt.Errorf("collective: %s: %w", label, err))
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// fail reports the rank's first error and abandons its part; a later error,
// or any after the rank completed, is dropped.
func (x *rankRun) fail(err error) {
	if x.done || x.failed {
		return
	}
	x.failed = true
	x.w.abandon()
	if x.onError != nil {
		x.onError(x.rank, err)
	}
}
