package netsim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"trimgrad/internal/xrand"
)

// scheduler is the surface the differential tests exercise — implemented
// by both the production Sim and the reference heap refSim.
type scheduler interface {
	Now() Time
	At(t Time, fn func())
	After(d Time, fn func())
	Stop()
	Run()
	RunUntil(deadline Time)
	Pending() int
}

// opSource deals deterministic pseudo-operands from a byte string; an
// exhausted source deals zeros, so every input is a complete program.
type opSource struct {
	data []byte
	pos  int
}

func (o *opSource) next() uint64 {
	var v uint64
	for i := 0; i < 3; i++ {
		if o.pos < len(o.data) {
			v = v<<8 | uint64(o.data[o.pos])
			o.pos++
		}
	}
	return v
}

// delayFor maps an operand onto a delay that stresses every level of the
// wheel: same-timestamp ties, intra-slot, in-window, overflow, and
// far-overflow events that force a curTick jump.
func delayFor(v uint64) Time {
	mag := v >> 3
	switch v % 6 {
	case 0:
		return 0 // same-time tie: ordering must fall back to the causal key
	case 1:
		return Time(mag % (1 << slotShift)) // inside the current slot
	case 2:
		return Time(mag % uint64(numSlots<<slotShift)) // somewhere in the wheel
	case 3:
		return Time(mag % uint64(8*numSlots<<slotShift)) // overflow heap
	case 4:
		return Time(mag % uint64(100*Millisecond)) // deep overflow
	default:
		return Time(mag % uint64(Microsecond))
	}
}

// runScenario interprets one schedule program against s and returns the
// event-firing trace plus clock/pending checkpoints. Identical traces on
// Sim and refSim mean identical (at, key) firing order, identical Now()
// trajectory, and identical Pending() at every phase boundary.
func runScenario(s scheduler, data []byte) []string {
	src := &opSource{data: data}
	var trace []string
	nextID := 0

	var spawn func(depth int)
	spawn = func(depth int) {
		id := nextID
		nextID++
		d := delayFor(src.next())
		s.After(d, func() {
			trace = append(trace, fmt.Sprintf("fire %d @%d", id, s.Now()))
			if depth < 3 {
				for k := src.next() % 4; k > 0; k-- {
					spawn(depth + 1)
				}
			}
			if src.next()%37 == 0 {
				s.Stop()
			}
		})
	}

	nRoots := 2 + int(src.next()%10)
	for i := 0; i < nRoots; i++ {
		spawn(0)
	}
	phases := 2 + int(src.next()%6)
	for p := 0; p < phases; p++ {
		s.RunUntil(s.Now() + delayFor(src.next()))
		trace = append(trace, fmt.Sprintf("phase %d now=%d pending=%d", p, s.Now(), s.Pending()))
		// Mid-run scheduling after a deadline return: the wheel must merge
		// late arrivals ahead of already-resident future events.
		if src.next()%2 == 0 {
			spawn(0)
		}
	}
	s.Run()
	trace = append(trace, fmt.Sprintf("end now=%d pending=%d", s.Now(), s.Pending()))
	return trace
}

func diffTraces(t *testing.T, want, got []string) {
	t.Helper()
	for i := 0; i < len(want) || i < len(got); i++ {
		w, g := "<none>", "<none>"
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("trace diverges at step %d:\n  heap:  %s\n  wheel: %s", i, w, g)
		}
	}
}

// TestTimerWheelMatchesHeap is the differential pin for the scheduler:
// randomized schedule programs replayed through the reference heap and
// the timer wheel must fire in the exact same (at, key) order with the
// same Now() trajectory and Processed counts.
func TestTimerWheelMatchesHeap(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 64+rng.Intn(192))
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		ref := &refSim{}
		wheel := NewSim()
		want := runScenario(ref, data)
		got := runScenario(wheel, data)
		diffTraces(t, want, got)
		if ref.processed != wheel.Processed {
			t.Fatalf("trial %d: processed %d (heap) != %d (wheel)", trial, ref.processed, wheel.Processed)
		}
	}
}

// lockstepRoots is how many events each lockstep tick drains from its
// slot: twice radixDepth, so those ticks take orderRun's radix path.
const lockstepRoots = 2 * radixDepth

// lockstep runs the incast shape on s: lockstepRoots roots spread over
// three timestamps of one tick re-arm at one period for several rounds, so
// each round's slot drains all of them; every other firing also spawns a
// child less than a tick later (in the same tick, placed in the late heap
// after that tick was drained), and the run advances by RunUntil deadlines
// that land mid-tick. It returns the trace and the most events that fired
// in one tick, drained and late together.
func lockstep(s scheduler) ([]string, int) {
	const (
		roots  = lockstepRoots
		rounds = 5
		start  = 40<<slotShift + 16 // roots up to 32 ns and children up to 199 ns later stay in the tick
		period = 4 << slotShift
	)
	var trace []string
	perTick := map[Time]int{}
	fire := func(name string) {
		trace = append(trace, fmt.Sprintf("fire %s @%d", name, s.Now()))
		perTick[s.Now()>>slotShift]++
	}
	var arm func(id, round int, d Time)
	arm = func(id, round int, d Time) {
		s.After(d, func() {
			fire(fmt.Sprintf("%d.%d", id, round))
			if id%2 == 0 {
				s.After(Time(id*37%200), func() { fire(fmt.Sprintf("%d.%d child", id, round)) })
			}
			if round+1 < rounds {
				arm(id, round+1, period)
			}
		})
	}
	for id := 0; id < roots; id++ {
		arm(id, 0, start+Time(id%3)*16)
	}
	for r := 0; r < rounds; r++ {
		s.RunUntil(start + Time(r)*period + 100)
		trace = append(trace, fmt.Sprintf("round %d now=%d pending=%d", r, s.Now(), s.Pending()))
	}
	s.Run()
	trace = append(trace, fmt.Sprintf("end now=%d pending=%d", s.Now(), s.Pending()))
	most := 0
	for _, n := range perTick {
		most = max(most, n)
	}
	return trace, most
}

// TestTimerWheelLockstep is the differential pin where ticks are deep: the
// random programs above hold a handful of events per tick, an incast holds
// hundreds. The wheel must replay the reference heap through drained ticks
// deep enough for the radix path, late same-tick arrivals and mid-tick
// deadlines included.
func TestTimerWheelLockstep(t *testing.T) {
	ref := &refSim{}
	want, _ := lockstep(ref)
	wheel := NewSim()
	got, most := lockstep(wheel)
	diffTraces(t, want, got)
	if ref.processed != wheel.Processed {
		t.Fatalf("processed %d (heap) != %d (wheel)", ref.processed, wheel.Processed)
	}
	if most < lockstepRoots {
		t.Fatalf("deepest tick held %d events; the program must reach %d", most, lockstepRoots)
	}
}

// The event record must stay in the 64-byte size class.
var _ [56 - unsafe.Sizeof(event{})]byte

// cmpEnt is before as a three-way comparison: slices.SortFunc(r, cmpEnt)
// is the reference orderRun must reproduce.
func cmpEnt(a, b qent) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.key, b.key)
}

// TestOrderRunMatchesSortFunc pins the tick sort where it is new: at
// depths either side of each threshold and far past them, a drained tick
// must come out exactly as slices.SortFunc(cmpEnt) orders it. The shapes
// include keys that agree on their top bits, whose packed keys tie (or
// differ only in their index), so the insertion pass does the ordering
// the integer sort could not. With hashed keys, as every Sim draws them,
// packedSort alone must leave almost nothing for that pass. One Sim runs
// every case, so the scratch buffers are reused across depths.
func TestOrderRunMatchesSortFunc(t *testing.T) {
	const tick = 123457 // any tick: only at's low slotShift bits are packed
	rng := xrand.New(32)
	shapes := []struct {
		name   string
		hashed bool // keys are uniformly random
		entry  func(i int) (off Time, key uint64)
	}{
		{"random", true, func(int) (Time, uint64) { return Time(rng.Intn(1 << slotShift)), rng.Uint64() }},
		{"one timestamp", true, func(int) (Time, uint64) { return 77, rng.Uint64() }},
		{"three uneven timestamps", true, func(i int) (Time, uint64) { return Time(max(i%5-2, 0)) * 80, rng.Uint64() }},
		// Distinct low 16 bits under one shared 48-bit prefix: the radix
		// bytes all tie, slices.Sort sees a few of the low bits.
		{"shared top bits", false, func(i int) (Time, uint64) {
			return Time(i % 2), 0xfeedfacecafe<<16 | uint64(i)*0x9e37&0xffff
		}},
		// Keys differing only below the packed bits: every packed key
		// ties but for the index, so the insertion pass does all the work.
		{"shared packed bits", false, func(i int) (Time, uint64) { return 5, 0xabcdef<<40 | uint64(i*0x65)&0xff }},
	}
	depths := []int{2, sortDepth, sortDepth + 1, radixDepth - 1, radixDepth, radixDepth + 1, 1024}
	s := NewSim()
	for _, shape := range shapes {
		for _, n := range depths {
			if shape.name == "shared packed bits" && n > 256 {
				continue // the low byte holds 256 distinct keys
			}
			ents := make([]qent, n)
			for i := range ents {
				off, key := shape.entry(i)
				ents[i] = qent{at: tick<<slotShift + off, key: key, ev: &event{}}
			}
			want := slices.Clone(ents)
			slices.SortFunc(want, cmpEnt)
			s.run = append(s.run[:0], ents...)
			s.orderRun()
			if !slices.Equal(s.run, want) {
				t.Fatalf("%s, depth %d: orderRun differs from slices.SortFunc(cmpEnt)", shape.name, n)
			}
			if !shape.hashed || n <= sortDepth {
				continue
			}
			s.run = append(s.run[:0], ents...)
			s.packedSort()
			inv := 0
			for i := range s.run {
				for j := i; j > 0 && s.run[j].before(s.run[j-1]); j-- {
					s.run[j], s.run[j-1] = s.run[j-1], s.run[j]
					inv++
				}
			}
			if inv > n/16 {
				t.Errorf("%s, depth %d: packedSort left %d inversions for the insertion pass", shape.name, n, inv)
			}
		}
	}
}

// TestDeepTickAllocations: once a Sim has drained and ordered a slot of
// some depth, doing it again as deep allocates nothing.
func TestDeepTickAllocations(t *testing.T) {
	s := NewSim()
	fn := func() {}
	tick := func() {
		// Two ticks ahead, so the events land in a slot, not the late heap.
		for i := 0; i < 512; i++ {
			s.After(2<<slotShift+Time(i%3)*80, fn)
		}
		s.Run()
	}
	tick() // warm the event pool and the sort scratch
	if avg := testing.AllocsPerRun(10, tick); avg != 0 {
		t.Fatalf("a warmed 512-event tick allocated %.1f times", avg)
	}
}

// FuzzTimerWheel feeds arbitrary byte programs through both schedulers.
func FuzzTimerWheel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 2, 3})
	f.Add([]byte{0xff, 0x80, 0x41, 0x07, 0x00, 0x13, 0x37, 0xee, 0x21, 0x9c})
	rng := xrand.New(7)
	seed := make([]byte, 128)
	for i := range seed {
		seed[i] = byte(rng.Uint64())
	}
	f.Add(seed)
	for _, seed := range wheelWrapSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := &refSim{}
		wheel := NewSim()
		want := runScenario(ref, data)
		got := runScenario(wheel, data)
		diffTraces(t, want, got)
		if ref.processed != wheel.Processed {
			t.Fatalf("processed %d (heap) != %d (wheel)", ref.processed, wheel.Processed)
		}
	})
}

// wheelOps encodes runScenario operands (24 bits each, big endian).
func wheelOps(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = append(b, byte(v>>16), byte(v>>8), byte(v))
	}
	return b
}

// delayOp returns the operand delayFor maps to delay d through case kind
// (d must be below that case's modulus).
func delayOp(kind uint64, d Time) uint64 {
	for r := uint64(0); r < 8; r++ {
		if v := uint64(d)<<3 | r; v%6 == kind {
			return v
		}
	}
	panic("unreachable: eight consecutive values cover every residue mod 6")
}

// wheelWrapSeeds are schedule programs that walk curTick to the end of the
// ring and then schedule across the wrap: slot indices numerically below
// the current one, an event alone in the window's last slot, and overflow
// events that migrate into slots either side of an occupancy-word boundary.
// Operands are laid out in the order runScenario draws them; the tail of
// ones means "one zero-delay child, never stop, no extra roots".
func wheelWrapSeeds() [][]byte {
	const tick = Time(1) << slotShift
	in := func(d Time) uint64 { return delayOp(2, d) }  // lands in the wheel
	far := func(d Time) uint64 { return delayOp(3, d) } // lands in overflow
	const twoPhases, noStop = 0, 1
	run := delayOp(4, 2*Millisecond) // the first RunUntil covers every event below
	tail := make([]uint64, 48)
	for i := range tail {
		tail[i] = 1
	}
	seed := func(head ...uint64) []byte { return wheelOps(append(head, tail...)...) }
	return [][]byte{
		// Two roots at ring indices numSlots-3 and numSlots-2. The first
		// fans out to indices 2 and numSlots-1 and to the last slot of its
		// window; the second to index 68, in the next occupancy word.
		seed(0, in((numSlots-3)*tick+5), in((numSlots-2)*tick), twoPhases, run,
			3, in(5*tick), in(2*tick+9), in((numSlots-1)*tick), noStop,
			1, in(70*tick), noStop),
		// A root at index 60 and four overflow roots 62..66 ticks past the
		// horizon. The root's children land at index 59 of the next lap
		// (below the current index), in overflow at index 61, and at index
		// 123 — reaching which migrates all five overflow events into slots
		// 61..66, either side of the word boundary at 64.
		seed(3, in(60*tick), far((numSlots+62)*tick), far((numSlots+63)*tick),
			far((numSlots+64)*tick+1), far((numSlots+66)*tick), twoPhases, run,
			3, in((numSlots-1)*tick), far((numSlots+1)*tick), in(63*tick), noStop),
	}
}

// checkOccupancy asserts the bitmap invariant: bit i is set exactly when
// slot i holds a chain, and nSlots counts the chained events.
func checkOccupancy(t *testing.T, s *Sim) {
	t.Helper()
	n := 0
	for i := range s.slots {
		set := s.occ[i>>6]&(1<<(i&63)) != 0
		if set != (s.slots[i] != nil) {
			t.Fatalf("slot %d: occupancy bit %v, chain present %v", i, set, s.slots[i] != nil)
		}
		for ev := s.slots[i]; ev != nil; ev = ev.next {
			n++
		}
	}
	if n != s.nSlots {
		t.Fatalf("nSlots = %d, chains hold %d", s.nSlots, n)
	}
}

// ringSpy is a Sim whose callbacks check the occupancy invariant and count
// how often the wheel's ring index moved backwards between two fires — a
// wrap past the end of the slot array.
type ringSpy struct {
	*Sim
	t     *testing.T
	last  int64
	wraps int
}

func (r *ringSpy) After(d Time, fn func()) {
	r.Sim.After(d, func() {
		checkOccupancy(r.t, r.Sim)
		if idx := r.curTick & slotMask; idx < r.last {
			r.wraps++
			r.last = idx
		} else {
			r.last = idx
		}
		fn()
	})
}

// TestWheelOccupancyWrap drives the bitmap search where it is easiest to
// get wrong — the ring seam. Hand-built schedules cover a slot index
// numerically below the current one, a lone event numSlots-1 ticks out
// (found only after the search has gone round every word and come back to
// the low bits of the one it started in), and overflow events migrating
// into both sides of an occupancy-word boundary; each must replay the
// reference heap, keep bit i ⇔ slot i non-empty at every fire, and leave
// the bitmap clear. The fuzz seeds must actually cross the seam.
func TestWheelOccupancyWrap(t *testing.T) {
	const tick = Time(1) << slotShift
	type child struct {
		parent int  // index into the schedule, -1 for a root
		d      Time // delay from the parent's firing time (from 0 for roots)
	}
	schedules := map[string][]child{
		"index below current": {
			{-1, (numSlots-3)*tick + 1},
			{0, 5 * tick}, {0, 2 * tick}, {0, 10*tick + 7}, {0, tick},
		},
		"lone event in the last slot": {
			{-1, 70*tick + 3}, // ring index 70: word 1, bit 6
			{0, (numSlots - 1) * tick},
			{1, (numSlots - 1) * tick},
		},
		"one past the horizon": {
			{-1, 5 * tick},
			{0, numSlots * tick}, {0, (numSlots - 1) * tick},
		},
		"overflow across a word boundary": {
			{-1, tick},
			{-1, (numSlots + 62) * tick}, {-1, (numSlots + 63) * tick},
			{-1, (numSlots+64)*tick + 2}, {-1, (numSlots + 65) * tick},
			{-1, (2*numSlots + 63) * tick}, {-1, (2*numSlots + 64) * tick},
			{3, (numSlots - 1) * tick},
		},
	}
	play := func(s scheduler, prog []child) []string {
		var trace []string
		var arm func(i int)
		arm = func(i int) {
			s.After(prog[i].d, func() {
				trace = append(trace, fmt.Sprintf("fire %d @%d", i, s.Now()))
				for j := range prog {
					if prog[j].parent == i {
						arm(j)
					}
				}
			})
		}
		for i := range prog {
			if prog[i].parent == -1 {
				arm(i)
			}
		}
		s.Run()
		return append(trace, fmt.Sprintf("end now=%d pending=%d", s.Now(), s.Pending()))
	}
	for name, prog := range schedules {
		t.Run(name, func(t *testing.T) {
			spy := &ringSpy{Sim: NewSim(), t: t}
			diffTraces(t, play(&refSim{}, prog), play(spy, prog))
			checkOccupancy(t, spy.Sim)
			if spy.occ != [occWords]uint64{} {
				t.Fatal("drained wheel left occupancy bits set")
			}
		})
	}
	for i, seed := range wheelWrapSeeds() {
		spy := &ringSpy{Sim: NewSim(), t: t}
		diffTraces(t, runScenario(&refSim{}, seed), runScenario(spy, seed))
		if spy.wraps == 0 {
			t.Errorf("fuzz seed %d never crossed the ring seam", i)
		}
	}
}

// TestSimDrainedHoldsNoEventReferences pins the satellite fix for the old
// eventQueue.Pop leak: after a sim drains, nothing it retains (pooled
// event records, heap backing arrays, slot chains) may keep a fired
// callback's captures alive, nor those of a Timer nobody else holds,
// whether it fired, was re-armed later or earlier, or was stopped.
func TestSimDrainedHoldsNoEventReferences(t *testing.T) {
	s := NewSim()
	const n = 200
	var collected atomic.Int64
	for i := 0; i < n; i++ {
		big := make([]byte, 1<<12)
		runtime.SetFinalizer(&big[0], func(*byte) { collected.Add(1) })
		// Spread across wheel levels so every container is exercised.
		d := Time(i) * 7 * Microsecond
		if i%2 == 0 {
			s.After(d, func() { _ = big[0] })
			continue
		}
		tm := s.NewTimer(func() { _ = big[0] })
		tm.Reset(d)
		switch i % 8 {
		case 3:
			tm.Reset(2 * d)
		case 5:
			tm.Reset(d / 2)
		case 7:
			tm.Stop()
		}
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after Run", s.Pending())
	}
	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() < n && time.Now().Before(deadline) {
		runtime.GC()
	}
	if got := collected.Load(); got < n {
		t.Fatalf("only %d/%d event captures were collected: drained sim retains references", got, n)
	}
	_ = s // keep the sim itself alive for the whole check
}

// TestFabricHopAllocations is the AllocsPerRun guard from the issue: on a
// star topology with pooled packets, steady-state traffic must average at
// most one allocation per simulated packet hop (the budget covers the
// occasional queue-slice growth; the typed event path itself is
// allocation-free).
func TestFabricHopAllocations(t *testing.T) {
	sim := NewSim()
	link := LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}
	star := NewStar(sim, 4, link, QueueConfig{})
	for _, h := range star.Hosts {
		h.Handler = func(*Packet) {}
	}
	const pkts = 64
	send := func() {
		for i := 0; i < pkts; i++ {
			pkt := sim.NewPacket()
			pkt.Dst = star.Hosts[(i+1)%4].ID()
			pkt.Size = 1500
			star.Hosts[i%4].Send(pkt)
		}
		sim.Run()
	}
	send() // warm the event, packet, and queue pools
	// Each packet crosses two links: host→switch and switch→host.
	const hops = pkts * 2
	avg := testing.AllocsPerRun(10, send)
	if perHop := avg / hops; perHop > 1 {
		t.Fatalf("%.2f allocs per packet hop (budget 1); %.1f per run", perHop, avg)
	}
}

// TestFabricBuildAllocations bounds what a k = 8 fat tree costs to build
// and make ready to forward: FabricSpec.Build, then one forwarding
// decision at every switch, so a table built lazily on first use would be
// counted too. The builders write each table once, every equal-cost set
// stored once per switch.
func TestFabricBuildAllocations(t *testing.T) {
	spec := FabricSpec{Kind: "fattree", K: 8, Link: LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}}
	build := func() {
		topo, err := spec.Build(NewSim())
		if err != nil {
			t.Fatal(err)
		}
		for _, sw := range topo.Switches() {
			sw.egress(0, 0, 0)
		}
	}
	avg := testing.AllocsPerRun(5, build)
	t.Logf("k = 8 fat-tree build: %.0f allocations", avg)
	if avg > 4000 {
		t.Fatalf("k = 8 fat-tree build: %.0f allocations (budget 4000)", avg)
	}
}
