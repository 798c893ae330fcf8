package netsim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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
		return 0 // same-time tie: ordering must fall back to seq
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
// Sim and refSim mean identical (at, seq) firing order, identical Now()
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

// TestTimerWheelMatchesHeap is the differential pin for the tentpole:
// randomized schedule programs replayed through the reference heap and
// the timer wheel must fire in the exact same (at, seq) order with the
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

// TestSimDrainedHoldsNoEventReferences pins the satellite fix for the old
// eventQueue.Pop leak: after a sim drains, nothing it retains (pooled
// event records, heap backing arrays, slot chains) may keep a fired
// callback's captures alive.
func TestSimDrainedHoldsNoEventReferences(t *testing.T) {
	s := NewSim()
	const n = 200
	var collected atomic.Int64
	for i := 0; i < n; i++ {
		big := make([]byte, 1<<12)
		runtime.SetFinalizer(&big[0], func(*byte) { collected.Add(1) })
		// Spread across wheel levels so every container is exercised.
		d := Time(i) * 7 * Microsecond
		s.After(d, func() { _ = big[0] })
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
