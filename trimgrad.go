// Package trimgrad is a pure-Go implementation of trimmable gradients —
// just-in-time gradient compression via packet trimming (Chen, Vargaftik,
// Ben Basat; HotNets '24) — together with every substrate the paper's
// evaluation needs: the 1-bit/multi-bit quantization codecs (§3), the
// head/tail trimmable wire format (§2), a discrete-event data-center
// network simulator with NDP-style trimming switches, reliable and
// trim-aware transports, ring/direct collectives, and a deterministic
// data-parallel training stack (§4).
//
// This root package is the public facade: it re-exports the types most
// applications need. The full surface lives in the internal packages,
// organized as:
//
//	internal/quant      trimmable quantization codecs (§3)
//	internal/wire       packet format + switch-side Trim (§2)
//	internal/core       gradient ⇄ packet pipeline, injectors, transcripts
//	internal/netsim     discrete-event fabric with trimming switches
//	internal/transport  reliable (baseline) and trim-aware protocols
//	internal/collective five all-reduce schedules, all-gather
//	internal/ml, internal/ddp   training substrate and DDP driver (§4)
//	internal/sparse, internal/lowrank   §5.2–5.3 compression companions
//	internal/exp        the figure-regeneration harness (cmd/trimbench)
//
// # Quick start
//
//	cfg := trimgrad.Config{Params: trimgrad.Params{Scheme: trimgrad.RHT}}
//	enc, _ := trimgrad.NewEncoder(cfg)
//	msg, _ := enc.Encode(epoch, msgID, grad)
//	// ship msg.Meta reliably, msg.Data through the trimming network ...
//	dec, _ := trimgrad.NewDecoder(cfg, msgID)
//	for _, pkt := range arrived { dec.Handle(pkt) } // admits and references pkt: leave it unmodified
//	approx, stats, _ := dec.Reconstruct(len(grad))  // decodes the rows, on all cores
//
// See examples/ for runnable scenarios and cmd/trimbench for the paper's
// figures.
package trimgrad

import (
	"trimgrad/internal/core"
	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
)

// Quantization schemes (§3 of the paper).
const (
	// Sign is sign-magnitude quantization: head = sign bit, trimmed
	// coordinates decode to ±σ.
	Sign = quant.Sign
	// SQ is stochastic quantization with TernGrad-style clipping.
	SQ = quant.SQ
	// SD is subtractive dithering with shared-seed dither.
	SD = quant.SD
	// RHT is the DRIVE-style randomized-Hadamard-transform encoding.
	RHT = quant.RHT
	// Linear is the P-bit multi-level head of §5.1.
	Linear = quant.Linear
	// RHTLinear composes RHT with a P-bit linear head.
	RHTLinear = quant.RHTLinear
	// Eden is the EDEN extension of DRIVE: RHT + Lloyd-Max heads.
	Eden = quant.Eden
)

// Re-exported configuration and pipeline types.
type (
	// Params selects and configures a quantization codec.
	Params = quant.Params
	// Codec encodes rows into trimmable head/tail form.
	Codec = quant.Codec
	// EncodedRow is one encoded gradient row.
	EncodedRow = quant.EncodedRow
	// Scheme identifies a quantization scheme.
	Scheme = quant.Scheme

	// Config configures an Encoder/Decoder pair.
	Config = core.Config
	// Encoder turns gradients into trimmable packet streams.
	Encoder = core.Encoder
	// Decoder admits (possibly trimmed) packets as they arrive and decodes
	// the gradient from them, row-parallel, at Reconstruct. It keeps a
	// reference to each accepted packet until Release.
	Decoder = core.Decoder
	// Message is one encoded collective-communication message.
	Message = core.Message
	// Stats summarizes what a Decoder observed.
	Stats = core.Stats
	// Injector models the network's effect on packets.
	Injector = core.Injector
	// Transcript records packet fates for §5.4 replay.
	Transcript = core.Transcript
)

// NewCodec constructs a quantization codec.
func NewCodec(p Params) (Codec, error) { return quant.New(p) }

// NewEncoder constructs a gradient encoder.
func NewEncoder(cfg Config) (*Encoder, error) {
	return core.NewEncoderWith(core.WithConfig(cfg))
}

// NewDecoder constructs a decoder for one message.
func NewDecoder(cfg Config, msgID uint32) (*Decoder, error) {
	return core.NewDecoderWith(msgID, core.WithConfig(cfg))
}

// Trim performs the switch-side trim operation on a raw packet buffer: it
// returns the kept prefix and writes nothing.
func Trim(pkt []byte, targetSize int) []byte { return wire.Trim(pkt, targetSize) }

// NewTrimmer returns an injector trimming packets with the given
// probability.
func NewTrimmer(rate float64, seed uint64) Injector { return core.NewTrimmer(rate, seed) }
