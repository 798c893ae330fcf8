package collective

import (
	"fmt"

	"trimgrad/internal/netsim"
	"trimgrad/internal/vecmath"
)

// AllReduceRecursiveDoubling averages grads with the classic
// recursive-doubling schedule: with m the largest power of two ≤ n and
// r = n − m, the first 2r ranks pre-combine in pairs (even rank hands its
// gradient to its odd neighbour and sits out), the m survivors run log₂(m)
// pairwise full-vector exchanges along hypercube dimensions, and the post
// phase returns the result to the ranks that sat out. Latency-optimal in
// rounds (log₂ n for powers of two), at the cost of sending the full
// vector every round.
//
// Message IDs baseMsg..baseMsg+rdSteps(n)·n−1 are consumed (step s, sender
// i uses baseMsg + s·n + i). onDone fires once per worker with its
// averaged gradient; onError reports transport failures, deadline expiry,
// and decode errors, once per rank.
func AllReduceRecursiveDoubling(epoch uint64, baseMsg uint32, workers []*Worker,
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
	ids := hostIDs(workers)
	opStart := workers[0].Stack.Host().Sim().Now()
	for i := range workers {
		st := &rdState{
			w:         workers[i],
			rank:      i,
			n:         n,
			epoch:     epoch,
			baseMsg:   baseMsg,
			dim:       dim,
			ids:       ids,
			rounds:    rdSchedule(n, i),
			acc:       append([]float32(nil), grads[i]...),
			completed: make(map[uint32]netsim.Time),
			started:   opStart,
			lastAt:    opStart,
			onDone:    onDone,
			onError:   onError,
		}
		st.sent = make([]bool, len(st.rounds))
		w := workers[i]
		w.onComplete = func(src netsim.NodeID, msg uint32, at netsim.Time) {
			if st.failed {
				return
			}
			st.completed[msg] = at
			st.run()
		}
		w.armDeadline(func() bool { return st.done }, st.fail)
		st.run()
	}
	return nil
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

// rdRound is one rank's action in one step of the schedule. A round may
// send, receive, or both (the exchange steps do both with the same peer).
type rdRound struct {
	step     int  // global step index (message-id namespace)
	sendTo   int  // peer rank to send the accumulator to; −1 for none
	recvFrom int  // peer rank to receive from; −1 for none
	adopt    bool // replace the accumulator instead of adding (post phase)
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

// rdSchedule builds rank i's round list for n workers.
func rdSchedule(n, i int) []rdRound {
	m := 1
	logm := 0
	for m*2 <= n {
		m *= 2
		logm++
	}
	r := n - m
	post := 1 + logm
	var rounds []rdRound
	if i < 2*r && i%2 == 0 {
		// Pre: hand the gradient to the odd neighbour, then wait for the
		// final sum to come back in the post step.
		return []rdRound{
			{step: 0, sendTo: i + 1, recvFrom: -1},
			{step: post, sendTo: -1, recvFrom: i + 1, adopt: true},
		}
	}
	if i < 2*r {
		rounds = append(rounds, rdRound{step: 0, sendTo: -1, recvFrom: i - 1})
	}
	nr := rdNewRank(i, r)
	for k := 0; k < logm; k++ {
		peer := rdOldRank(nr^(1<<k), r)
		rounds = append(rounds, rdRound{step: 1 + k, sendTo: peer, recvFrom: peer})
	}
	if i < 2*r {
		rounds = append(rounds, rdRound{step: post, sendTo: i - 1, recvFrom: -1})
	}
	return rounds
}

// rdState is one worker's progress through its schedule. Rounds execute in
// order; a round's send goes out the moment the round is entered, and the
// round completes when its receive (if any) has been decoded.
type rdState struct {
	w         *Worker
	rank, n   int
	epoch     uint64
	baseMsg   uint32
	dim       int
	ids       []netsim.NodeID
	rounds    []rdRound
	sent      []bool
	idx       int
	acc       []float32
	completed map[uint32]netsim.Time
	done      bool
	failed    bool
	started   netsim.Time
	lastAt    netsim.Time
	onDone    func(rank int, avg []float32, at netsim.Time)
	onError   func(rank int, err error)
}

// msgID identifies the full-vector message sent by sender at global step.
func (st *rdState) msgID(step, sender int) uint32 {
	return st.baseMsg + uint32(step)*uint32(st.n) + uint32(sender)
}

func (st *rdState) fail(err error) {
	if st.done || st.failed {
		return
	}
	st.failed = true
	st.w.abandon()
	if st.onError != nil {
		st.onError(st.rank, err)
	}
}

// run drives the schedule as far as completed receives allow.
func (st *rdState) run() {
	for !st.done && !st.failed {
		if st.idx >= len(st.rounds) {
			st.finish()
			return
		}
		rd := st.rounds[st.idx]
		if !st.sent[st.idx] {
			st.sent[st.idx] = true
			if rd.sendTo >= 0 {
				msg := st.msgID(rd.step, st.rank)
				step := rd.step
				err := st.w.send(st.ids[rd.sendTo], st.epoch, msg, st.acc, func(err error) {
					st.fail(fmt.Errorf("collective: rd send step %d: %w", step, err))
				})
				if err != nil {
					st.fail(err)
					return
				}
			}
		}
		if rd.recvFrom >= 0 {
			msg := st.msgID(rd.step, rd.recvFrom)
			at, ok := st.completed[msg]
			if !ok {
				return
			}
			delete(st.completed, msg)
			dec, err := st.w.reconstruct(st.ids[rd.recvFrom], msg, st.dim)
			if err != nil {
				st.fail(err)
				return
			}
			if rd.adopt {
				copy(st.acc, dec)
			} else {
				vecmath.Add(st.acc, dec)
			}
			st.lastAt = at
		}
		st.idx++
	}
}

// finish averages the accumulated sum and reports completion.
func (st *rdState) finish() {
	st.done = true
	vecmath.Scale(st.acc, 1/float32(st.n))
	st.w.span("collective.rd", st.started, st.lastAt)
	if st.onDone != nil {
		st.onDone(st.rank, st.acc, st.lastAt)
	}
}
