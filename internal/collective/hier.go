package collective

import (
	"fmt"
	"math"

	"trimgrad/internal/netsim"
	"trimgrad/internal/vecmath"
)

// AllReduceHierarchical averages grads with a two-level schedule, the
// shape rack-scale deployments use: workers are split into ⌈√n⌉ groups of
// contiguous ranks; each group's members send their gradients to the
// group leader (intra-group reduce), the leaders exchange group sums
// all-to-all (inter-group exchange), and each leader broadcasts the global
// average back to its members (intra-group broadcast). Leaf traffic stays
// local to the group while only ⌈√n⌉ flows cross the core — which is
// exactly where the aggregation-placement sweep puts its switch.
//
// Message IDs: member rank i sends its gradient as baseMsg+i; leader L
// sends its group sum as baseMsg+n+L and the average as baseMsg+2n+L
// (3n IDs total). onDone fires once per worker with its average.
func AllReduceHierarchical(epoch uint64, baseMsg uint32, workers []*Worker,
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
	g := int(math.Ceil(math.Sqrt(float64(n))))
	off := chunkOffsets(n, g)
	leaders := make([]int, g)
	groupOf := make([]int, n)
	for j := 0; j < g; j++ {
		leaders[j] = off[j]
		for i := off[j]; i < off[j+1]; i++ {
			groupOf[i] = j
		}
	}
	ids := hostIDs(workers)
	un := uint32(n)
	opStart := workers[0].Stack.Host().Sim().Now()

	for i := range workers {
		i, w := i, workers[i]
		j := groupOf[i]
		leader := leaders[j]
		if i != leader {
			// Member: contribute to the leader, await the average.
			wantMsg := baseMsg + 2*un + uint32(leader)
			got := false
			failed := false
			fail := func(err error) {
				if failed || got {
					return
				}
				failed = true
				w.abandon()
				if onError != nil {
					onError(i, err)
				}
			}
			w.onComplete = func(src netsim.NodeID, msg uint32, at netsim.Time) {
				if failed || got || msg != wantMsg || src != ids[leader] {
					return
				}
				dec, err := w.reconstruct(src, msg, dim)
				if err != nil {
					fail(err)
					return
				}
				got = true
				w.span("collective.hier", opStart, at)
				if onDone != nil {
					onDone(i, dec, at)
				}
			}
			w.armDeadline(func() bool { return got }, fail)
			if err := w.send(ids[leader], epoch, baseMsg+uint32(i), grads[i], func(err error) {
				fail(fmt.Errorf("collective: hier reduce %d→%d: %w", i, leader, err))
			}); err != nil {
				return err
			}
			continue
		}

		// Leader: sum the group, exchange with other leaders, broadcast.
		st := &hierLeader{
			w:        w,
			rank:     i,
			group:    j,
			n:        n,
			g:        g,
			epoch:    epoch,
			baseMsg:  baseMsg,
			dim:      dim,
			ids:      ids,
			off:      off,
			leaders:  leaders,
			groupSum: append([]float32(nil), grads[i]...),
			extSum:   make([]float32, dim),
			started:  opStart,
			onDone:   onDone,
			onError:  onError,
		}
		st.membersLeft = off[j+1] - off[j] - 1
		st.extLeft = g - 1
		w.onComplete = st.onComplete
		w.armDeadline(func() bool { return st.done }, st.fail)
		// A leader with no members starts its exchange immediately.
		st.maybeAdvance(opStart)
	}
	return nil
}

// hierLeader tracks one group leader through the three phases. Member and
// leader contributions accumulate eagerly into separate accumulators as
// their messages complete (arrival order is deterministic under a fixed
// seed), so a fast neighbouring group cannot stall on a slow one.
type hierLeader struct {
	w           *Worker
	rank, group int
	n, g        int
	epoch       uint64
	baseMsg     uint32
	dim         int
	ids         []netsim.NodeID
	off         []int
	leaders     []int
	groupSum    []float32 // own gradient + member gradients
	extSum      []float32 // other leaders' group sums
	membersLeft int
	extLeft     int
	exchanged   bool // group sum sent to the other leaders
	done        bool
	failed      bool
	started     netsim.Time
	reduceEnd   netsim.Time
	onDone      func(rank int, avg []float32, at netsim.Time)
	onError     func(rank int, err error)
}

func (st *hierLeader) fail(err error) {
	if st.done || st.failed {
		return
	}
	st.failed = true
	st.w.abandon()
	if st.onError != nil {
		st.onError(st.rank, err)
	}
}

func (st *hierLeader) onComplete(src netsim.NodeID, msg uint32, at netsim.Time) {
	if st.failed || st.done {
		return
	}
	un := uint32(st.n)
	switch {
	case msg >= st.baseMsg && msg < st.baseMsg+un:
		// A member's gradient (member rank encoded in the message id).
		member := int(msg - st.baseMsg)
		if member < st.off[st.group] || member >= st.off[st.group+1] ||
			member == st.rank || src != st.ids[member] {
			return
		}
		dec, err := st.w.reconstruct(src, msg, st.dim)
		if err != nil {
			st.fail(err)
			return
		}
		vecmath.Add(st.groupSum, dec)
		st.membersLeft--
	case msg >= st.baseMsg+un && msg < st.baseMsg+2*un:
		// Another leader's group sum.
		peer := int(msg - st.baseMsg - un)
		if peer == st.rank || src != st.ids[peer] {
			return
		}
		dec, err := st.w.reconstruct(src, msg, st.dim)
		if err != nil {
			st.fail(err)
			return
		}
		vecmath.Add(st.extSum, dec)
		st.extLeft--
	default:
		return
	}
	st.maybeAdvance(at)
}

// maybeAdvance fires the phase transitions that have become ready.
func (st *hierLeader) maybeAdvance(at netsim.Time) {
	if st.failed || st.done {
		return
	}
	if st.membersLeft == 0 && !st.exchanged {
		st.exchanged = true
		st.reduceEnd = at
		if st.off[st.group+1]-st.off[st.group] > 1 {
			st.w.span("collective.hier.reduce", st.started, at)
		}
		msg := st.baseMsg + uint32(st.n) + uint32(st.rank)
		var peers []netsim.NodeID
		for _, peer := range st.leaders {
			if peer != st.rank {
				peers = append(peers, st.ids[peer])
			}
		}
		if err := st.w.sendAll(peers, st.epoch, msg, st.groupSum, func(dst netsim.NodeID, err error) {
			st.fail(fmt.Errorf("collective: hier exchange %d→%d: %w", st.rank, dst, err))
		}); err != nil {
			st.fail(err)
			return
		}
	}
	if st.membersLeft == 0 && st.extLeft == 0 {
		st.done = true
		st.w.span("collective.hier.exchange", st.reduceEnd, at)
		avg := st.groupSum
		vecmath.Add(avg, st.extSum)
		vecmath.Scale(avg, 1/float32(st.n))
		msg := st.baseMsg + 2*uint32(st.n) + uint32(st.rank)
		if st.onDone != nil {
			st.onDone(st.rank, avg, at)
		}
		// The leader's round is complete; broadcast failures route through
		// fail, whose done guard makes them no-ops. The member that missed
		// the broadcast reports its own deadline error — the leader must not
		// report a second outcome.
		// The leader is the first rank of its group; the members follow it.
		members := st.ids[st.rank+1 : st.off[st.group+1]]
		if err := st.w.sendAll(members, st.epoch, msg, avg, func(dst netsim.NodeID, err error) {
			st.fail(fmt.Errorf("collective: hier broadcast %d→%d: %w", st.rank, dst, err))
		}); err != nil {
			st.fail(err)
		}
	}
}
