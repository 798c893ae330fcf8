package core

import (
	"trimgrad/internal/obs"
	"trimgrad/internal/wire"
)

// §5.3 Interacting with congestion control: the sender can adjust the
// tail width Q ahead of time from coarse congestion feedback, while the
// switch still applies just-in-time trimming to whatever the sender got
// wrong. The paper argues the right policy is to *slightly under-compress
// and over-send* — keep the link saturated and let the switch shave the
// excess — rather than let a conservative congestion controller
// over-compress and waste capacity.
//
// AdaptiveQ implements that policy as AIMD on the tail width: while the
// observed trim fraction stays at or below the target (the "slight"
// over-send), Q grows additively toward full precision; when trimming
// exceeds the target, Q shrinks multiplicatively.

// AdaptiveQ tracks the ahead-of-time tail width for one sender.
// The zero value is not useful; use NewAdaptiveQ.
type AdaptiveQ struct {
	// Min and Max bound the tail width.
	Min, Max int
	// TargetTrim is the trim fraction the controller is happy to let the
	// switch absorb (the deliberate over-send).
	TargetTrim float64
	// Decrease is the multiplicative factor applied when trimming exceeds
	// TargetTrim.
	Decrease float64
	// Increase is the additive step (in bits) applied otherwise.
	Increase float64

	q float64

	// Congestion-signal source (see Bind/Update): the controller reads the
	// receiver's coordinate counters from the shared registry instead of
	// having per-message trim fractions threaded to it by hand.
	trimmed, total         *obs.Counter
	lastTrimmed, lastTotal int64
}

// NewAdaptiveQ returns a controller spanning [8, 31] tail bits with a 5%
// trim target, starting at full precision.
func NewAdaptiveQ() *AdaptiveQ {
	return &AdaptiveQ{
		Min: 8, Max: 31,
		TargetTrim: 0.05,
		Decrease:   0.7,
		Increase:   2,
		q:          31,
	}
}

// Q returns the tail width to use for the next message.
func (a *AdaptiveQ) Q() int {
	q := int(a.q + 0.5)
	if q < a.Min {
		q = a.Min
	}
	if q > a.Max {
		q = a.Max
	}
	return q
}

// Bind points the controller at a telemetry registry whose decoders
// report into "core.decode.*" (i.e. decoders built with WithRegistry on
// the same registry). Subsequent Update calls derive the trim fraction
// from counter deltas — the congestion signal flows through the registry,
// not through hand-plumbed stats returns.
func (a *AdaptiveQ) Bind(r *obs.Registry) {
	a.trimmed = r.Counter("core.decode.coords_trimmed_total")
	a.total = r.Counter("core.decode.coords_total")
	a.lastTrimmed, a.lastTotal = a.trimmed.Value(), a.total.Value()
}

// Update reads the coordinate counters accumulated since the previous
// Update (or Bind) and feeds the resulting trim fraction to Observe.
// A no-op when nothing was decoded in between, or when unbound.
func (a *AdaptiveQ) Update() {
	if a.total == nil {
		return
	}
	trimmed, total := a.trimmed.Value(), a.total.Value()
	dTrimmed, dTotal := trimmed-a.lastTrimmed, total-a.lastTotal
	a.lastTrimmed, a.lastTotal = trimmed, total
	if dTotal <= 0 {
		return
	}
	a.Observe(float64(dTrimmed) / float64(dTotal))
}

// Observe feeds back the decoder statistics of the previous message and
// adjusts Q.
func (a *AdaptiveQ) Observe(trimFraction float64) {
	if trimFraction > a.TargetTrim {
		a.q *= a.Decrease
	} else {
		a.q += a.Increase
	}
	if a.q < float64(a.Min) {
		a.q = float64(a.Min)
	}
	if a.q > float64(a.Max) {
		a.q = float64(a.Max)
	}
}

// CapacityTrimmer is an Injector modelling a fixed-capacity bottleneck
// round: packets pass untouched until the byte budget is exhausted, after
// which every packet is trimmed to its head boundary. Mirroring the
// netsim switch, trimmed headers travel a separate high-priority budget
// (default a quarter of the main one), so they survive even when bulk
// capacity is exactly used up; a packet drops only when both budgets are
// exhausted. Call Reset between rounds.
type CapacityTrimmer struct {
	// BudgetBytes is the per-round bottleneck capacity for full packets.
	BudgetBytes int
	// HighBudgetBytes is the separate capacity for trimmed headers.
	// Zero means BudgetBytes/4.
	HighBudgetBytes int
	used, usedHigh  int
	// Trimmed counts packets trimmed this round.
	Trimmed int
	// Dropped counts packets dropped this round.
	Dropped int
}

// Reset starts a new round.
func (c *CapacityTrimmer) Reset() {
	c.used = 0
	c.usedHigh = 0
	c.Trimmed = 0
	c.Dropped = 0
}

func (c *CapacityTrimmer) highBudget() int {
	if c.HighBudgetBytes > 0 {
		return c.HighBudgetBytes
	}
	return c.BudgetBytes / 4
}

// Apply implements Injector.
func (c *CapacityTrimmer) Apply(pkt []byte) []byte {
	if c.used+len(pkt) <= c.BudgetBytes {
		c.used += len(pkt)
		return pkt
	}
	trimmed := wire.Trim(pkt, 0) // the minimal self-contained size
	if len(trimmed) < len(pkt) && c.usedHigh+len(trimmed) <= c.highBudget() {
		c.usedHigh += len(trimmed)
		c.Trimmed++
		return trimmed
	}
	c.Dropped++
	return nil
}
