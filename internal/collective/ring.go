package collective

import (
	"fmt"

	"trimgrad/internal/netsim"
	"trimgrad/internal/vecmath"
)

// AllReduceRing averages grads with the bandwidth-optimal ring algorithm:
// N−1 reduce-scatter steps followed by N−1 all-gather steps over chunks of
// the gradient. Each hop decodes the (possibly trimmed) incoming chunk,
// accumulates, and re-encodes — so in-network compression can kick in
// independently at every congested hop of the ring.
//
// Message IDs baseMsg..baseMsg+(2N−2)·N−1 are consumed. The gradient
// length must be at least the number of workers. onDone fires once per
// worker with its averaged gradient.
func AllReduceRing(epoch uint64, baseMsg uint32, workers []*Worker,
	grads [][]float32, onDone func(rank int, avg []float32, at netsim.Time),
	onError func(rank int, err error)) error {
	n := len(workers)
	dim, err := checkGrads(workers, grads)
	if err != nil {
		return err
	}
	if n == 1 {
		if onDone != nil {
			onDone(0, append([]float32(nil), grads[0]...),
				workers[0].Stack.Host().Sim().Now())
		}
		return nil
	}
	if dim < n {
		return fmt.Errorf("collective: gradient length %d < %d workers", dim, n)
	}
	// Contiguous chunk boundaries: chunk c spans [off[c], off[c+1]).
	off := chunkOffsets(dim, n)
	opStart := workers[0].Stack.Host().Sim().Now()
	for i := range workers {
		rs := &ringState{
			w:         workers[i],
			rank:      i,
			n:         n,
			epoch:     epoch,
			baseMsg:   baseMsg,
			off:       off,
			acc:       append([]float32(nil), grads[i]...),
			completed: make(map[uint32]netsim.Time),
			onDone:    onDone,
			onError:   onError,
			started:   opStart,
			rsEnd:     opStart,
		}
		rs.leftID = workers[(i-1+n)%n].Stack.Host().ID()
		rs.rightID = workers[(i+1)%n].Stack.Host().ID()
		w := workers[i]
		w.onComplete = func(src netsim.NodeID, msg uint32, at netsim.Time) {
			if rs.failed || src != rs.leftID {
				return
			}
			rs.completed[msg] = at
			rs.advance()
		}
		w.armDeadline(func() bool { return rs.done }, rs.fail)
		if err := rs.sendStep(); err != nil {
			return err
		}
	}
	return nil
}

// ringState is one worker's position in the ring schedule. Global steps
// 0..n−2 are reduce-scatter (accumulate), n−1..2n−3 are all-gather
// (replace).
type ringState struct {
	w               *Worker
	rank, n         int
	epoch           uint64
	baseMsg         uint32
	off             []int
	acc             []float32
	step            int
	leftID, rightID netsim.NodeID
	completed       map[uint32]netsim.Time
	done            bool
	failed          bool
	// started/rsEnd delimit the phase spans: reduce-scatter runs from
	// operation start to the step n-1 boundary, all-gather from there to
	// completion.
	started, rsEnd netsim.Time
	onDone         func(rank int, avg []float32, at netsim.Time)
	onError        func(rank int, err error)
}

func (rs *ringState) totalSteps() int { return 2*rs.n - 2 }

// msgID identifies the chunk message sent by sender at global step.
func (rs *ringState) msgID(step, sender int) uint32 {
	return rs.baseMsg + uint32(step)*uint32(rs.n) + uint32(sender)
}

// sendChunk returns which chunk rank i transmits at global step s.
func (rs *ringState) sendChunk(s, i int) int {
	if s < rs.n-1 {
		return mod(i-s, rs.n) // reduce-scatter
	}
	return mod(i+1-(s-(rs.n-1)), rs.n) // all-gather
}

// recvChunk returns which chunk rank i receives at global step s.
func (rs *ringState) recvChunk(s, i int) int {
	return rs.sendChunk(s, mod(i-1, rs.n))
}

func (rs *ringState) chunk(c int) []float32 { return rs.acc[rs.off[c]:rs.off[c+1]] }

// sendStep transmits this worker's chunk for the current step.
func (rs *ringState) sendStep() error {
	if rs.step >= rs.totalSteps() {
		return nil
	}
	c := rs.sendChunk(rs.step, rs.rank)
	msg := rs.msgID(rs.step, rs.rank)
	step := rs.step
	err := rs.w.send(rs.rightID, rs.epoch, msg, rs.chunk(c), func(err error) {
		rs.fail(fmt.Errorf("collective: ring send step %d: %w", step, err))
	})
	if err != nil {
		rs.fail(err)
	}
	return err
}

// fail reports the first error for this rank's operation; later errors
// (and a deadline firing after completion) are suppressed.
func (rs *ringState) fail(err error) {
	if rs.done || rs.failed {
		return
	}
	rs.failed = true
	rs.w.abandon()
	if rs.onError != nil {
		rs.onError(rs.rank, err)
	}
}

// advance processes every consecutively-completed incoming step.
func (rs *ringState) advance() {
	for !rs.done && !rs.failed && rs.step < rs.totalSteps() {
		msg := rs.msgID(rs.step, mod(rs.rank-1, rs.n))
		at, ok := rs.completed[msg]
		if !ok {
			return
		}
		delete(rs.completed, msg)
		c := rs.recvChunk(rs.step, rs.rank)
		dst := rs.chunk(c)
		dec, err := rs.w.reconstruct(rs.leftID, msg, len(dst))
		if err != nil {
			rs.fail(err)
			return
		}
		if rs.step < rs.n-1 {
			vecmath.Add(dst, dec) // reduce-scatter: accumulate
		} else {
			copy(dst, dec) // all-gather: adopt the reduced chunk
		}
		rs.step++
		if rs.step == rs.n-1 {
			rs.rsEnd = at
			rs.w.span("collective.ring.reduce_scatter", rs.started, at)
		}
		if rs.step < rs.totalSteps() {
			if rs.sendStep() != nil {
				return
			}
			continue
		}
		// Finished: average and report.
		rs.done = true
		rs.w.span("collective.ring.all_gather", rs.rsEnd, at)
		vecmath.Scale(rs.acc, 1/float32(rs.n))
		if rs.onDone != nil {
			rs.onDone(rs.rank, rs.acc, at)
		}
	}
}
