package core

import (
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

// An Injector models what the network does to each data packet in flight.
// It is the software analogue of the paper's "pre-set random probabilistic
// dropping/trimming" used to simulate congestion in the prototype (§4).
// Metadata packets travel the reliable channel and bypass injectors.
//
// Apply returns the (possibly trimmed) packet, or nil if the packet was
// dropped. Implementations may mutate pkt in place, as wire.Trim does.
type Injector interface {
	Apply(pkt []byte) []byte
}

// Trimmer trims each packet independently with probability Rate,
// simulating congestion-triggered switch trimming at a fixed intensity.
type Trimmer struct {
	Rate float64
	// Target is the trim target size in bytes; zero trims to the head
	// boundary (maximal trimming).
	Target int
	rng    *xrand.Rand
}

// NewTrimmer returns a Trimmer with a deterministic RNG.
func NewTrimmer(rate float64, seed uint64) *Trimmer {
	return &Trimmer{Rate: rate, rng: xrand.New(seed)}
}

// Apply trims pkt with probability Rate.
func (t *Trimmer) Apply(pkt []byte) []byte {
	if t.rng.Float64() < t.Rate {
		return wire.Trim(pkt, t.Target)
	}
	return pkt
}
