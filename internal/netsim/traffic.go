package netsim

import (
	"math"
	"sort"
	"strconv"
	"sync"

	"trimgrad/internal/obs"
	"trimgrad/internal/xrand"
)

// CrossTraffic generates Poisson-arrival opaque packets from a host toward
// a destination, modelling the bursty background load that shares the
// fabric with gradient traffic (§1).
type CrossTraffic struct {
	Host *Host
	Dst  NodeID
	// PacketSize in bytes (on the wire).
	PacketSize int
	// Rate in packets per second (Poisson).
	Rate float64
	// Prio of the generated packets.
	Prio Priority
	// FlowID stamps every generated packet; ECMP fabrics hash on it, so
	// distinct ids let background flows spread across paths. Defaults to
	// MaxUint64, the legacy shared cross-traffic id.
	FlowID uint64

	rng     *xrand.Rand
	stopped bool
	Sent    int
}

// NewCrossTraffic creates a generator; call Start to begin.
func NewCrossTraffic(h *Host, dst NodeID, pktSize int, rate float64, seed uint64) *CrossTraffic {
	return &CrossTraffic{
		Host: h, Dst: dst, PacketSize: pktSize, Rate: rate,
		FlowID: math.MaxUint64,
		rng:    xrand.New(seed),
	}
}

// Start schedules the first arrival.
func (c *CrossTraffic) Start() {
	if c.Rate <= 0 {
		return
	}
	c.scheduleNext()
}

// Stop halts generation after any in-flight event.
func (c *CrossTraffic) Stop() { c.stopped = true }

func (c *CrossTraffic) scheduleNext() {
	gap := Time(c.rng.ExpFloat64() / c.Rate * float64(Second))
	c.Host.sim.After(gap, func() {
		if c.stopped {
			return
		}
		pkt := c.Host.sim.NewPacket()
		pkt.Dst = c.Dst
		pkt.Size = c.PacketSize
		pkt.Prio = c.Prio
		pkt.FlowID = c.FlowID
		c.Host.Send(pkt)
		c.Sent++
		c.scheduleNext()
	})
}

// FCTRecorder collects per-flow completion times. It is safe to share
// across the shards of a sharded simulator: completion callbacks fire on
// the shard goroutine that owns the receiving host, so the recorder
// serializes its state behind a mutex. (Completion order across shards is
// still deterministic — the causal-key event order fixes it — so the recorded
// multiset and every derived statistic are identical at any shard count.)
type FCTRecorder struct {
	mu    sync.Mutex
	start map[uint64]Time
	fcts  []Time
	// Obs, when set, receives one "netsim.flow" span per completed flow
	// (start/end in simulated nanoseconds, flow id as an attribute).
	Obs *obs.Registry
}

// NewFCTRecorder returns an empty recorder.
func NewFCTRecorder() *FCTRecorder {
	return &FCTRecorder{start: make(map[uint64]Time)}
}

// FlowStarted records the start time of a flow.
func (f *FCTRecorder) FlowStarted(id uint64, at Time) {
	f.mu.Lock()
	f.start[id] = at
	f.mu.Unlock()
}

// FlowFinished records completion; unknown flows are ignored.
func (f *FCTRecorder) FlowFinished(id uint64, at Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.start[id]; ok {
		f.fcts = append(f.fcts, at-s)
		delete(f.start, id)
		f.Obs.RecordSpan("netsim.flow", int64(s), int64(at),
			obs.KV{K: "flow", V: strconv.FormatUint(id, 10)})
	}
}

// Count returns the number of completed flows.
func (f *FCTRecorder) Count() int { return len(f.fcts) }

// Percentile returns the q-quantile (0..1) completion time, or 0 if empty.
func (f *FCTRecorder) Percentile(q float64) Time {
	if len(f.fcts) == 0 {
		return 0
	}
	s := append([]Time(nil), f.fcts...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Max returns the slowest completion time (the straggler, which the paper
// argues dominates synchronous training).
func (f *FCTRecorder) Max() Time {
	var m Time
	for _, t := range f.fcts {
		if t > m {
			m = t
		}
	}
	return m
}
