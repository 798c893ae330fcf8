package core

import (
	"encoding/json"
	"fmt"
	"io"

	"trimgrad/internal/wire"
)

// §5.4 Reproducibility: with trimmable gradients every training run is
// unique because congestion decides which packets get trimmed. To replay a
// run, the framework records a *trim transcript* — the fate of every data
// packet — and later re-applies it deterministically while the packets
// travel a reliable channel.

// PacketFate records what the network did to one data packet.
type PacketFate uint8

const (
	// FateDelivered means the packet arrived untouched.
	FateDelivered PacketFate = iota
	// FateTrimmed means the packet arrived cut to KeptBytes.
	FateTrimmed
	// FateDropped means the packet never arrived.
	FateDropped
)

// String returns a human-readable fate name.
func (f PacketFate) String() string {
	switch f {
	case FateDelivered:
		return "delivered"
	case FateTrimmed:
		return "trimmed"
	case FateDropped:
		return "dropped"
	default:
		return fmt.Sprintf("fate(%d)", uint8(f))
	}
}

// TrimEvent is one transcript entry, keyed by the packet's identity
// (message, row, start coordinate).
type TrimEvent struct {
	Message   uint32     `json:"msg"`
	Row       uint32     `json:"row"`
	Start     uint32     `json:"start"`
	Fate      PacketFate `json:"fate"`
	KeptBytes int        `json:"kept,omitempty"`
}

// Transcript is the ordered record of packet fates across a training
// episode.
type Transcript struct {
	Events []TrimEvent `json:"events"`
}

// Save writes the transcript as JSON.
func (t *Transcript) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// LoadTranscript reads a transcript written by Save.
func LoadTranscript(r io.Reader) (*Transcript, error) {
	var t Transcript
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("core: load transcript: %w", err)
	}
	return &t, nil
}

// Recorder wraps an Injector, recording the fate of every packet into a
// Transcript as it passes through.
type Recorder struct {
	Inner      Injector
	Transcript Transcript
}

// NewRecorder wraps inner.
func NewRecorder(inner Injector) *Recorder { return &Recorder{Inner: inner} }

// Apply forwards to the inner injector and records the outcome.
func (r *Recorder) Apply(pkt []byte) []byte {
	h, err := wire.ParseHeader(pkt)
	out := r.Inner.Apply(pkt)
	if err != nil {
		return out // unidentifiable packet: pass through unrecorded
	}
	ev := TrimEvent{Message: h.Message, Row: h.Row, Start: h.Start}
	switch {
	case out == nil:
		ev.Fate = FateDropped
	case len(out) < len(pkt):
		ev.Fate = FateTrimmed
		ev.KeptBytes = len(out)
	default:
		ev.Fate = FateDelivered
	}
	r.Transcript.Events = append(r.Transcript.Events, ev)
	return out
}

// Player replays a recorded transcript: each packet receives the fate its
// (message, row, start) key received during recording. Packets not in the
// transcript are delivered untouched. Replaying requires the run to emit
// the same packets in the same identity space, which holds when model,
// data order, and seeds match (§5.4).
type Player struct {
	fates map[[3]uint32]TrimEvent
}

// NewPlayer indexes a transcript for replay.
func NewPlayer(t *Transcript) *Player {
	p := &Player{fates: make(map[[3]uint32]TrimEvent, len(t.Events))}
	for _, ev := range t.Events {
		p.fates[[3]uint32{ev.Message, ev.Row, ev.Start}] = ev
	}
	return p
}

// Apply re-applies the recorded fate to pkt.
func (p *Player) Apply(pkt []byte) []byte {
	h, err := wire.ParseHeader(pkt)
	if err != nil {
		return pkt
	}
	ev, ok := p.fates[[3]uint32{h.Message, h.Row, h.Start}]
	if !ok {
		return pkt
	}
	switch ev.Fate {
	case FateDropped:
		return nil
	case FateTrimmed:
		return wire.Trim(pkt, ev.KeptBytes)
	default:
		return pkt
	}
}
