// Package netsim is a discrete-event simulator of a data-center network
// with packet-trimming switches, the substrate the paper's motivation
// (§1–§2) and future-work closed-loop studies (§5.1) rest on.
//
// The simulator models hosts, full-duplex links with finite bandwidth and
// propagation delay, and output-queued switches with shallow buffers.
// When a switch queue overflows it either tail-drops (the conventional
// baseline) or trims the packet to its head boundary and forwards the
// remainder in a small high-priority queue, as NDP/EODS-style fabrics and
// the Ultra Ethernet trimming option do. Trimming understands the trimgrad
// wire format of package wire: data packets shrink to their self-contained
// compressed form, while metadata/control packets are never trimmed.
//
// Everything is deterministic: events at equal timestamps fire in
// causal-key order (see Sim.nextKey) — a fixed order that is the same at
// every shard count, and is not FIFO — and all randomness comes from
// explicit xrand seeds, so experiment results are exactly reproducible.
//
// The scheduler is a hierarchical timer wheel (see DESIGN.md §11): the
// near future lives in fixed-width slots indexed by time delta, the far
// future in a heap-backed overflow level, and the hot fabric paths run on
// pooled typed event records instead of heap-allocated closures. The
// firing order is bit-identical to a binary heap ordered by (at, causal
// key) — pinned by the differential and fuzz tests in sim_diff_test.go.
package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"trimgrad/internal/obs"
	"trimgrad/internal/xrand"
)

// Time is simulated time in nanoseconds since simulation start.
type Time int64

// Common durations (re-exported for convenience in experiment code).
const (
	Nanosecond  = Time(1)
	Microsecond = 1000 * Nanosecond
	Millisecond = 1000 * Microsecond
	Second      = 1000 * Millisecond
)

// maxTime is the RunUntil deadline used by Run: effectively "forever".
const maxTime = Time(1<<62 - 1)

// Duration converts to a time.Duration for printing.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the time in floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as a duration.
func (t Time) String() string { return t.Duration().String() }

// evKind discriminates pooled typed events. The fabric's per-packet paths
// (serialization done, propagation arrival, fault-delayed re-admission)
// are typed so a hop costs zero closure allocations; everything else uses
// evFunc through the public At/After API.
type evKind uint8

const (
	// evFunc runs an arbitrary callback (the cold At/After path).
	evFunc evKind = iota
	// evTxDone fires when port finishes serializing onto the link, if a
	// packet waits behind the wire (see Port.transmitNext).
	evTxDone
	// evDeliver hands pkt to port's peer after propagation.
	evDeliver
	// evAdmit re-admits a fault-delayed (reordered) pkt into port's queue.
	evAdmit
)

// event is one scheduled occurrence. Records are pooled on the owning
// Sim's free list; only the fields their kind needs are set, and all
// reference fields are cleared on release so a drained simulator retains
// nothing it fired (see TestSimDrainedHoldsNoEventReferences). A delivery
// reaches its node through the delivering port, so a record is 56 bytes
// and fits one 64-byte allocation.
type event struct {
	at   Time
	key  uint64 // causal-path hash: the tie-break among equal timestamps
	next *event // slot chain / free-list link
	kind evKind
	fn   func()  // evFunc
	port *Port   // evTxDone, evAdmit; evDeliver: the port whose peer receives
	pkt  *Packet // evDeliver, evAdmit
}

// qent is a queue entry: an event with its (at, key) copied inline, so
// ordering entries reads only the entries and never follows ev.
type qent struct {
	at  Time
	key uint64
	ev  *event
}

// before is the scheduler's total order: time, then causal key.
func (a qent) before(b qent) bool {
	return a.at < b.at || a.at == b.at && a.key < b.key
}

// entHeap is a binary min-heap of entries in before order. It backs the
// current tick's late arrivals and the far-future overflow level. pop
// zeroes the vacated slot so the backing array never retains a fired
// event.
type entHeap []qent

func (h *entHeap) push(e qent) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *entHeap) pop() qent {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0], q[n] = q[n], qent{}
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && q[l].before(q[least]) {
			least = l
		}
		if r < n && q[r].before(q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top
}

// Wheel geometry. A slot spans 2^slotShift nanoseconds (256 ns — about a
// fifth of one MTU serialization at 10 Gb/s; senders in lockstep still
// share exact timestamps, so a busy tick can hold a hundred events), and
// the wheel covers numSlots slots (≈1 ms).
// Per-packet events (tx, propagation, queueing) and first RTOs land in the
// wheel; backed-off protocol timers and experiment deadlines spill into
// the overflow heap, which is exactly the cheap-near/rare-far split a
// fabric simulation wants. The constants were picked by measurement
// (DESIGN.md §11 has the table); they are not an option.
const (
	slotShift = 8
	numSlots  = 4096
	slotMask  = numSlots - 1
	// occWords is the size of the slot-occupancy bitmap: one bit per slot.
	occWords = numSlots / 64
)

// Tick ordering (see orderRun). A drained tick deeper than sortDepth is
// ordered by packed integer keys: by slices.Sort below radixDepth, by
// radixPasses LSD byte passes from radixDepth on. radixDepth is where the
// radix passes overtook slices.Sort when ticks 24 to 1 024 deep were timed
// (DESIGN.md §11).
const (
	sortDepth   = 16
	radixDepth  = 64
	radixPasses = 3
)

// Sim is a deterministic discrete-event scheduler. The zero value is not
// usable; construct with NewSim. Events at equal timestamps fire in
// causal-key order: the same order on every run of the same program and
// at every shard count, but not the order they were scheduled in.
//
// A key is fixed when an event is scheduled, so the fabric and Timer can
// reserve an event's (at, key) and place a record only if the event will
// do something: a serialization end with nothing queued behind it, or a
// timer re-armed while an earlier event of its own is pending, is never
// placed (DESIGN.md §11). A reserved point has passed once it is at or
// before the dispatch cursor (curAt, curKey).
//
// Internally it is a two-level timer wheel over pooled event records:
//
//   - run and late: every pending event with tick ≤ curTick. run[ri:] is
//     the rest of curTick's slot, put in (at, key) order once when it was
//     drained (orderRun); late is a heap of the events placed at or before
//     curTick after that drain.
//     Because slot events all have strictly later timestamps, the smaller
//     of the two heads is the global minimum.
//   - slots: the wheel proper — events with curTick < tick < curTick+numSlots,
//     chained per slot in no particular order (ordering is imposed when a
//     slot is drained into run).
//   - overflow: a heap of events at tick ≥ curTick+numSlots, migrated
//     into the wheel as curTick advances.
//
// Invariant: curTick only moves forward, and overflow never holds an
// event inside the wheel window, so a slot can never alias two ticks.
type Sim struct {
	now     Time
	stopped bool
	obs     *obs.Registry

	curTick int64
	run     []qent
	ri      int
	late    entHeap
	// runTmp and keyBuf are orderRun's scratch: the permuted run and the
	// packed keys (twice a deep tick's length, for the radix ping-pong).
	runTmp []qent
	keyBuf []uint64
	slots  [numSlots]*event
	// occ has bit i set exactly when slots[i] is non-empty, so advance finds
	// the next occupied slot a word at a time instead of probing every one.
	occ      [occWords]uint64
	nSlots   int // events resident in slot chains
	overflow entHeap
	npend    int

	freeEv  *event
	freePkt []*Packet
	// pktMade counts the pooled records NewPacket allocated here (not the
	// ones it reused): Network.Audit balances it against the free lists,
	// the return bins and the records the fabric holds.
	pktMade int

	// Causal-key context (see nextKey). rootN counts the events scheduled
	// outside any dispatch; the shards of an Engine share one counter.
	rootN       *uint64
	dispatching bool   // inside dispatch: ctxKey/ctxN are the live context
	ctxKey      uint64 // key of the event being dispatched
	ctxN        uint64 // children scheduled by the current dispatch so far

	// curAt, curKey is the dispatch cursor: the latest (at, key) dispatched,
	// or, after an unstopped run, the end of its last instant (finish).
	curAt  Time
	curKey uint64
	// wire lists the ports whose serialization end was reserved but not
	// placed (Port.listed), for finish to settle.
	wire []*Port

	// Sharded-mode fields (see shard.go and DESIGN.md §15). eng is non-nil
	// when this Sim is one shard of an Engine.
	eng      *Engine
	shardIdx int
	active   bool        // this shard's goroutine is running a parallel phase
	out      [][]xmsg    // per-destination-shard hand-off mailboxes
	retPkt   [][]*Packet // per-home-shard pooled-packet returns

	// controlMerger, when set, lets the transport layer re-describe a
	// merged packet's control header during in-network aggregation (see
	// SetControlMerger). Nil means only control-free packets may merge.
	controlMerger func(into, from *Packet) (any, bool)

	// Processed counts the events that fired (useful in tests and as a
	// runaway guard). Reserved points that were never placed do not count,
	// so it is not the number of scheduled occurrences.
	Processed uint64
}

// NewSim returns an empty simulator at time zero.
func NewSim() *Sim { return &Sim{rootN: new(uint64)} }

// SetControlMerger registers the transport hook the aggregation merge path
// consults before folding two packets (QueueConfig.AggregateTrimmable):
// given the two packets, it returns the control header describing the
// aggregate — typically the concatenation of both inputs' reassembly
// entries — or ok=false to veto the merge (e.g. the two packets share a
// sender, so folding would double-count). Every transport stack registers
// the same package-level function, so repeated registration is idempotent.
func (s *Sim) SetControlMerger(fn func(into, from *Packet) (any, bool)) {
	if s.eng != nil {
		// Transports register on their host's shard, but the aggregating
		// switch consulting the hook may live on any shard.
		for _, sh := range s.eng.shards {
			sh.sim.controlMerger = fn
		}
		return
	}
	s.controlMerger = fn
}

// Obs returns the registry bound to this simulator (nil — the no-op
// registry — when none was attached). Transports and collectives built on
// top of the fabric report into it.
func (s *Sim) Obs() *obs.Registry { return s.obs }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// allocEvent takes a record off the free list, or makes one.
func (s *Sim) allocEvent() *event {
	if ev := s.freeEv; ev != nil {
		s.freeEv = ev.next
		ev.next = nil
		return ev
	}
	return &event{}
}

// releaseEvent clears every reference the record carried and returns it
// to the free list. Clearing matters: the free list is long-lived, and a
// retained closure or packet would anchor arbitrarily large object graphs
// (the leak the old heap implementation had in its backing array).
func (s *Sim) releaseEvent(ev *event) {
	ev.fn = nil
	ev.port = nil
	ev.pkt = nil
	ev.next = s.freeEv
	s.freeEv = ev
}

// rootKeySalt seeds the causal keys of events scheduled outside any
// dispatch (setup code, slicing loops between RunUntil calls). Every shard
// of an Engine shares the root counter: setup runs single-threaded, and a
// shared counter means "the i-th root event of the program" gets the same
// key no matter which shard it lands on — the anchor of the
// cross-shard-count identity argument.
const rootKeySalt = 0x5ead0e5e

// nextKey derives the causal-path hash key for the next event this
// context schedules: xrand.Seed(parent key, child index). The key is a
// pure function of the event's causal ancestry, so a plain Sim and an
// Engine at any shard count — which all execute the same causal tree —
// give every event the same key and fire ties in the same order.
func (s *Sim) nextKey() uint64 {
	if s.dispatching {
		k := xrand.Seed(s.ctxKey, s.ctxN)
		s.ctxN++
		return k
	}
	k := xrand.Seed(rootKeySalt, *s.rootN)
	*s.rootN++
	return k
}

// reserve fixes the causal key of an event at t without placing it.
// Scheduling in the past panics: that is always a logic bug in a
// discrete-event model.
func (s *Sim) reserve(t Time) uint64 {
	if t < s.now {
		panic(fmt.Sprintf("netsim: scheduling at %v before now %v", t, s.now))
	}
	if s.eng != nil && s.eng.parallel && !s.active {
		panic("netsim: event scheduled on a foreign shard during a parallel window; cross-shard effects must go through packet hand-offs")
	}
	return s.nextKey()
}

// passed reports whether the reserved point (at, key) is at or before the
// dispatch cursor: whether an event placed there would have fired by now.
func (s *Sim) passed(at Time, key uint64) bool {
	return at < s.curAt || at == s.curAt && key <= s.curKey
}

// placeAt places a typed event of kind at the reserved point (at, key)
// and returns it, for an evFunc caller to set fn.
func (s *Sim) placeAt(kind evKind, at Time, key uint64, p *Port, pkt *Packet) *event {
	ev := s.allocEvent()
	ev.kind, ev.at, ev.key, ev.port, ev.pkt = kind, at, key, p, pkt
	s.place(ev)
	return ev
}

// place routes ev by tick: at-or-before the current tick into the late
// heap, inside the wheel window into a slot chain, beyond into overflow.
func (s *Sim) place(ev *event) {
	tick := int64(ev.at) >> slotShift
	switch {
	case tick <= s.curTick:
		s.late.push(qent{ev.at, ev.key, ev})
	case tick < s.curTick+numSlots:
		idx := tick & slotMask
		ev.next = s.slots[idx]
		s.slots[idx] = ev
		s.occ[idx>>6] |= 1 << (idx & 63)
		s.nSlots++
	default:
		s.overflow.push(qent{ev.at, ev.key, ev})
	}
	s.npend++
}

// advance moves curTick to the next tick holding events and drains that
// tick into run. Precondition: run and late are spent and npend > 0.
func (s *Sim) advance() {
	s.run, s.ri = s.run[:0], 0
	if s.nSlots > 0 {
		// Every resident slot event has a tick in (curTick, curTick+numSlots),
		// so the first occupied slot in ring order after curTick's own index
		// is the earliest tick, and its ring distance is the tick delta.
		idx := s.nextOccupied((s.curTick + 1) & slotMask)
		s.curTick += (idx - s.curTick) & slotMask
		s.drainSlot(idx)
		s.migrate()
		return
	}
	// Wheel empty: jump straight to the overflow minimum's tick.
	s.curTick = int64(s.overflow[0].at) >> slotShift
	s.migrate()
}

// nextOccupied returns the index of the first occupied slot at or after
// from in ring order (wrapping past numSlots-1 to 0). Precondition: some
// slot is occupied.
func (s *Sim) nextOccupied(from int64) int64 {
	w := from >> 6
	// The starting word first, from bit from&63 up; then whole words round
	// the ring; the starting word's low bits are the last stretch, reached
	// when the loop comes back to it (those at or above from&63 are known
	// clear by then).
	if m := s.occ[w] >> (from & 63) << (from & 63); m != 0 {
		return w<<6 + int64(bits.TrailingZeros64(m))
	}
	for {
		w = (w + 1) & (occWords - 1)
		if m := s.occ[w]; m != 0 {
			return w<<6 + int64(bits.TrailingZeros64(m))
		}
	}
}

// drainSlot moves a slot chain into run and puts it in order.
func (s *Sim) drainSlot(idx int64) {
	ev := s.slots[idx]
	s.slots[idx] = nil
	s.occ[idx>>6] &^= 1 << (idx & 63)
	for ev != nil {
		next := ev.next
		ev.next = nil
		s.run = append(s.run, qent{ev.at, ev.key, ev})
		ev = next
	}
	s.nSlots -= len(s.run)
	s.orderRun()
}

// orderRun sorts run, whose entries all share one tick, into before order:
// the handful of events most ticks hold by insertion alone, a deeper tick
// by packedSort first. The insertion pass compares full (at, key), so the
// result is exact whatever packedSort left out of order.
func (s *Sim) orderRun() {
	if len(s.run) > sortDepth {
		s.packedSort()
	}
	r := s.run
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && r[j].before(r[j-1]); j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
}

// packedSort orders run with plain integer compares. (at, key) packs into
// one uint64 — at's low slotShift bits on top, then key's high bits, then
// the entry's index in the low ⌈log₂ n⌉ bits, which makes every packed key
// distinct and names its entry — and run is permuted by the sorted keys.
// Only entries whose truncated keys tie can be left out of order.
func (s *Sim) packedSort() {
	n := len(s.run)
	b := bits.Len(uint(n - 1))
	s.keyBuf = slices.Grow(s.keyBuf[:0], 2*n)
	keys := s.keyBuf[:n]
	for i, e := range s.run {
		keys[i] = uint64(e.at)<<(64-slotShift) | e.key>>(slotShift+b)<<b | uint64(i)
	}
	if n < radixDepth {
		slices.Sort(keys)
	} else {
		keys = radixTop(keys, s.keyBuf[n:2*n])
	}
	tmp := s.runTmp[:0]
	for _, k := range keys {
		tmp = append(tmp, s.run[k&(1<<b-1)])
	}
	s.run, s.runTmp = tmp, s.run
}

// radixTop sorts keys by their top radixPasses bytes with a stable LSD
// radix sort, ping-ponging through tmp (len(tmp) == len(keys)), and
// returns whichever of the two holds the result. A pass whose byte every
// key shares is skipped.
func radixTop(keys, tmp []uint64) []uint64 {
	var count [radixPasses][256]int
	for _, k := range keys {
		for p := range count {
			count[p][byte(k>>(64-8*(radixPasses-p)))]++
		}
	}
	for p := range count {
		shift := 64 - 8*(radixPasses-p)
		c := &count[p]
		if c[byte(keys[0]>>shift)] == len(keys) {
			continue
		}
		sum := 0
		for d, n := range c {
			c[d], sum = sum, sum+n
		}
		for _, k := range keys {
			d := byte(k >> shift)
			tmp[c[d]] = k
			c[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// migrate restores the overflow invariant after curTick advanced: any
// event now inside the wheel window moves into its slot (or into late if
// its tick is the current one).
func (s *Sim) migrate() {
	limit := s.curTick + numSlots
	for len(s.overflow) > 0 && int64(s.overflow[0].at)>>slotShift < limit {
		e := s.overflow.pop()
		s.npend-- // place re-counts it
		s.place(e.ev)
	}
}

// head returns the earliest pending entry, advancing the wheel when the
// current tick is spent, and whether it heads late rather than run.
// Precondition: npend > 0.
func (s *Sim) head() (qent, bool) {
	if s.ri == len(s.run) && len(s.late) == 0 {
		s.advance()
	}
	if s.ri < len(s.run) && (len(s.late) == 0 || s.run[s.ri].before(s.late[0])) {
		return s.run[s.ri], false
	}
	return s.late[0], true
}

// At schedules fn at absolute time t. Scheduling in the past panics: that
// is always a logic bug in a discrete-event model.
func (s *Sim) At(t Time, fn func()) { s.placeAt(evFunc, t, s.reserve(t), nil, nil).fn = fn }

// After schedules fn d nanoseconds from now.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// deliverAt schedules pkt's propagation arrival at p's peer at the
// reserved point (at, key): a typed event when the peer runs on this Sim,
// else a hand-off the barrier passes to the peer's shard (shard.go).
func (s *Sim) deliverAt(p *Port, pkt *Packet, at Time, key uint64) {
	if p.peerSim == s {
		s.placeAt(evDeliver, at, key, p, pkt)
		return
	}
	s.out[p.peerSim.shardIdx] = append(s.out[p.peerSim.shardIdx], xmsg{at: at, key: key, port: p, pkt: pkt})
}

// afterAdmit schedules the typed fault-delay re-admission event at port p.
func (s *Sim) afterAdmit(d Time, p *Port, pkt *Packet) {
	s.placeAt(evAdmit, s.now+d, s.reserve(s.now+d), p, pkt)
}

// dispatch runs one event. The switch must cover every evKind — trimlint's
// determinism checker verifies exhaustiveness, because a silently dropped
// kind would desynchronize replay.
func (s *Sim) dispatch(ev *event) {
	switch ev.kind {
	case evFunc:
		ev.fn()
	case evTxDone:
		// A packet waits behind the wire. Child 0, the arrival, was
		// scheduled at transmit start.
		s.ctxN = 1
		ev.port.Stats.Transmitted++
		ev.port.transmitNext()
	case evDeliver:
		peer := ev.port.peer
		if _, isHost := peer.(*Host); isHost {
			peer.Deliver(ev.pkt)
			// Once Deliver returned, the fabric owns the record again and
			// can recycle it. Switches forward, so their packets stay live.
			s.releasePacket(ev.pkt)
			return
		}
		peer.Deliver(ev.pkt)
	case evAdmit:
		ev.port.admit(ev.pkt)
	}
}

// Stop makes Run return after the current event.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events until the queue is empty or Stop is called.
func (s *Sim) Run() { s.RunUntil(maxTime) }

// RunUntil executes events with timestamps ≤ deadline, advancing the clock
// to each event's time. Unless Stop ended it early, the clock then
// advances to the deadline; a stopped run leaves it at the stopping
// event, so the events still pending never fire in the past.
func (s *Sim) RunUntil(deadline Time) {
	s.runTo(deadline)
	s.finish(deadline, s.stopped)
}

// finish ends a run. An unstopped run fired every event at or before
// deadline (every event at all, for maxTime), so the clock advances to
// the deadline, or, on a drained simulator, to the latest serialization
// end it reserved, and the cursor to the end of that instant. A stopped
// run moves neither. Then every port on the wire list whose reserved
// point has passed is settled.
func (s *Sim) finish(deadline Time, stopped bool) {
	if !stopped && deadline >= s.now {
		if deadline < maxTime {
			s.now = deadline
		} else {
			for _, p := range s.wire {
				s.now = max(s.now, p.txAt)
			}
		}
		s.curAt, s.curKey = s.now, math.MaxUint64
	}
	wire := s.wire[:0]
	for _, p := range s.wire {
		if p.settle() {
			wire = append(wire, p)
		} else {
			p.listed = false
		}
	}
	clear(s.wire[len(wire):])
	s.wire = wire
}

// runTo is RunUntil without finish: events ≤ deadline fire, but the clock
// stays at the last fired event. The sharded engine runs windows through
// it so a window bound — an artifact of the shard count — never shows up
// in any clock, keeping Now() trajectories identical at every shard count.
func (s *Sim) runTo(deadline Time) {
	s.stopped = false
	for s.npend > 0 && !s.stopped {
		e, late := s.head()
		if e.at > deadline {
			return
		}
		if late {
			s.late.pop()
		} else {
			s.ri++
		}
		s.npend--
		s.now = e.at
		if e.at > s.curAt {
			s.curAt, s.curKey = e.at, e.key
		} else {
			s.curKey = max(s.curKey, e.key)
		}
		s.Processed++
		// The event's key becomes the causal context for everything it
		// schedules; restore the root context on the way out.
		s.ctxKey, s.ctxN, s.dispatching = e.key, 0, true
		s.dispatch(e.ev)
		s.dispatching = false
		s.releaseEvent(e.ev)
	}
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return s.npend }

// nextAt peeks at the earliest pending event's timestamp without firing
// it. It may advance curTick to surface the wheel minimum into run, which
// never changes firing semantics — only where the event is resident.
func (s *Sim) nextAt() (Time, bool) {
	if s.npend == 0 {
		return 0, false
	}
	e, _ := s.head()
	return e.at, true
}

// NewPacket returns a zeroed packet from the simulator's pool. Pooled
// packets are recycled by the fabric at their terminal point — delivery
// to a host, or any drop (queue overflow, random loss, down port or host,
// route miss, burst loss) — so steady-state traffic allocates no packet
// records. The caller must treat the packet as gone once it is handed to
// Host.Send / Port.Enqueue; in particular a handler must not retain it
// past Deliver. Packets built with a plain &Packet{} literal are never
// recycled, so existing callers and tests keep their aliasing freedom.
func (s *Sim) NewPacket() *Packet {
	if n := len(s.freePkt); n > 0 {
		p := s.freePkt[n-1]
		s.freePkt[n-1] = nil
		s.freePkt = s.freePkt[:n-1]
		return p
	}
	s.pktMade++
	return &Packet{pooled: true, home: s}
}

// releasePacket recycles a pooled packet record. Unpooled packets (plain
// literals) pass through untouched. All fields are cleared so the pool
// never anchors payload buffers or control structs.
//
// In sharded mode a packet that terminated away from its allocating shard
// is parked in a per-home return bin and flows back to its home pool at
// the next barrier: without the return leg, a steady cross-shard flow
// (an incast, say) would grow the sink shard's free list without bound
// while the source shards allocate fresh records every packet — exactly
// the ≤1 alloc/hop regression the per-shard pools exist to avoid.
func (s *Sim) releasePacket(p *Packet) {
	if p == nil {
		return
	}
	if !p.pooled {
		return
	}
	home := p.home
	*p = Packet{pooled: true, home: home}
	if home != nil && home != s {
		s.retPkt[home.shardIdx] = append(s.retPkt[home.shardIdx], p)
		return
	}
	s.freePkt = append(s.freePkt, p)
}
