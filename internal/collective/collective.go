// Package collective implements the collective-communication operations
// distributed training needs (the paper's "*ccl" layer): five all-reduce
// schedules for gradient averaging and all-gather for FSDP weight
// collection (§5.5). Each operation builds one plan per rank (plan.go)
// and one executor runs them. Every operation runs over the
// simulated fabric via package transport in either Reliable (baseline) or
// Trimmable mode, and aggregation understands trimmed rows: a message
// whose packets were trimmed still contributes its compressed gradient —
// that is the paper's central mechanism.
package collective

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/transport"
	"trimgrad/internal/wire"
)

// ErrDeadlineExceeded reports a collective operation that did not finish
// within the worker's Deadline — the graceful-degradation alternative to
// hanging forever on a dead or partitioned peer.
var ErrDeadlineExceeded = errors.New("collective: deadline exceeded")

// Mode selects the transport protocol for a collective.
type Mode int

const (
	// Reliable uses retransmission-based delivery (the NCCL-like baseline).
	Reliable Mode = iota
	// Trimmable uses the trim-aware transport.
	Trimmable
)

// String names the mode.
func (m Mode) String() string {
	if m == Trimmable {
		return "trimmable"
	}
	return "reliable"
}

// Worker is one collective participant bound to a host's transport stack.
type Worker struct {
	Rank  int
	Stack *transport.Stack
	Mode  Mode

	// Deadline bounds each collective operation this worker joins,
	// measured from the moment the operation starts. If the worker has
	// not completed by then, its onError fires with ErrDeadlineExceeded
	// instead of the round hanging. Zero disables the bound.
	Deadline netsim.Time

	cfg  core.Config
	enc  *core.Encoder
	decs map[decKey]*core.Decoder
	// sums holds per-message summing decoders (parameter-server reduce).
	// They are keyed by message alone: a SumDecoder accepts packets from
	// every flow — including switch-built aggregates, whose arriving Src is
	// whichever sender's packet was queued first — so routing must not
	// depend on the source host.
	sums map[uint32]*core.SumDecoder
	obs  *obs.Registry
	// withObs holds the decode handles New resolved, for every decoder.
	withObs core.Option

	// onComplete is the op-installed completion hook.
	onComplete func(src netsim.NodeID, msg uint32, at netsim.Time)
	// AggStats accumulates decode statistics across operations.
	AggStats core.Stats
}

type decKey struct {
	src netsim.NodeID
	msg uint32
}

// An Option configures a Worker at construction.
type Option func(*workerOpts)

type workerOpts struct {
	cfg  core.Config
	mode Mode
}

// WithConfig sets the codec configuration (Flow is overwritten with the
// rank regardless).
func WithConfig(cfg core.Config) Option { return func(o *workerOpts) { o.cfg = cfg } }

// WithMode selects the transport protocol.
func WithMode(m Mode) Option { return func(o *workerOpts) { o.mode = m } }

// New binds a worker to a stack, configured by options. The codec Flow id
// is overwritten with the rank so packet headers identify the sender. The
// worker reports into the registry bound to its host's simulator: its
// encoder and decoders count there, and operations record per-phase spans.
func New(rank int, stack *transport.Stack, opts ...Option) (*Worker, error) {
	var o workerOpts
	for _, opt := range opts {
		opt(&o)
	}
	reg := stack.Host().Sim().Obs()
	cfg := o.cfg
	cfg.Flow = uint32(rank)
	withObs := core.WithRegistry(reg)
	enc, err := core.NewEncoderWith(core.WithConfig(cfg), withObs)
	if err != nil {
		return nil, err
	}
	// The first decoder built with withObs resolves the handles.
	if _, err := core.NewDecoderWith(0, core.WithConfig(cfg), withObs); err != nil {
		return nil, err
	}
	w := &Worker{
		Rank:    rank,
		Stack:   stack,
		Mode:    o.mode,
		cfg:     cfg,
		enc:     enc,
		decs:    make(map[decKey]*core.Decoder),
		sums:    make(map[uint32]*core.SumDecoder),
		obs:     reg,
		withObs: withObs,
	}
	stack.Receiver = transport.ReceiverFunc(w.handlePayload)
	stack.OnMessageComplete = func(src netsim.NodeID, msg uint32, at netsim.Time) {
		if w.onComplete != nil {
			w.onComplete(src, msg, at)
		}
	}
	return w, nil
}

// span records one completed collective phase for this worker, stamped in
// simulated time with the rank as an attribute.
func (w *Worker) span(name string, start, end netsim.Time) {
	w.obs.RecordSpan(name, int64(start), int64(end),
		obs.KV{K: "rank", V: strconv.Itoa(w.Rank)})
}

func (w *Worker) handlePayload(src netsim.NodeID, payload []byte) {
	h, err := wire.ParseHeader(payload)
	if err != nil {
		// Not a trimgrad payload (mangled header or cross traffic). Count
		// it so congestion experiments can distinguish "trimmed" (expected)
		// from "corrupt" (a bug) instead of silently dropping it.
		w.AggStats.RejectedPackets++
		return
	}
	if w.onComplete == nil {
		return // no operation in progress (the last one failed): see abandon
	}
	if sd := w.sums[h.Message]; sd != nil {
		//trimlint:allow swallowed-error rejections are counted in the sum decoder's Stats; like the per-sender path, they simply don't contribute
		_ = sd.Handle(payload)
		return
	}
	if h.IsAgg() {
		// A switch-built aggregate is only decodable by a summing decoder;
		// without one registered for its message it is unusable.
		w.AggStats.RejectedPackets++
		return
	}
	key := decKey{src, h.Message}
	dec := w.decs[key]
	if dec == nil {
		d, err := core.NewDecoderWith(h.Message, core.WithConfig(w.cfg), w.withObs)
		if err != nil {
			w.AggStats.RejectedPackets++
			return
		}
		dec = d
		w.decs[key] = dec
	}
	if err := dec.Handle(payload); err != nil {
		// Rejected packets don't contribute, mirroring a real receiver,
		// but the decoder recorded the rejection in its stats; reconstruct
		// folds that into AggStats.
		return
	}
}

// reconstruct decodes a completed message from src and drops its state,
// whether or not the decode succeeds: a decoder holds references to the
// payloads it admitted, so one left in the map pins a whole message.
func (w *Worker) reconstruct(src netsim.NodeID, msg uint32, n int) ([]float32, error) {
	key := decKey{src, msg}
	dec := w.decs[key]
	if dec == nil {
		return nil, fmt.Errorf("collective: no packets from %d for message %d", src, msg)
	}
	delete(w.decs, key)
	defer dec.Release()
	// Parallel reconstruction is bit-identical to serial (values, Stats,
	// and obs counters alike), so the collective's determinism contract —
	// same seed, same bytes — is preserved while rows decode on all cores.
	out, stats, err := dec.DecodeParallel(n, 0)
	if err != nil {
		return nil, err
	}
	w.AggStats.Accumulate(stats)
	return out, nil
}

// registerSum installs a summing decoder for message msg fed by nFlows
// senders; incoming packets for msg (from any flow, aggregated or not)
// route to it instead of per-sender decoders.
func (w *Worker) registerSum(msg uint32, nFlows int) error {
	sd, err := core.NewSumDecoder(msg, nFlows, core.WithConfig(w.cfg), w.withObs)
	if err != nil {
		return err
	}
	w.sums[msg] = sd
	return nil
}

// reconstructSum finishes a registered summing decoder: it returns the
// coordinate-wise SUM of the contributing gradients (the caller divides)
// and drops the decoder's state, as reconstruct does.
func (w *Worker) reconstructSum(msg uint32, n int) ([]float32, error) {
	sd := w.sums[msg]
	if sd == nil {
		return nil, fmt.Errorf("collective: no sum decoder for message %d", msg)
	}
	delete(w.sums, msg)
	defer sd.Release()
	out, stats, err := sd.Reconstruct(n)
	if err != nil {
		return nil, err
	}
	w.AggStats.Accumulate(stats)
	return out, nil
}

// abandon ends the worker's part in an operation that failed: its decoders
// are dropped, and with them their references to the payloads they admitted,
// and payloads that still arrive for the operation are ignored — no decoder
// is made for them — until the next operation installs its completion hook.
// The executor's fail calls it, once per rank.
func (w *Worker) abandon() {
	clear(w.decs)
	clear(w.sums)
	w.onComplete = nil
}

// armDeadline schedules the worker's per-operation deadline check: if
// completed() is still false when Deadline elapses, fail receives
// ErrDeadlineExceeded. A zero Deadline arms nothing.
func (w *Worker) armDeadline(completed func() bool, fail func(err error)) {
	if w.Deadline <= 0 {
		return
	}
	w.Stack.Host().Sim().After(w.Deadline, func() {
		if !completed() {
			fail(fmt.Errorf("%w: rank %d after %v", ErrDeadlineExceeded, w.Rank, w.Deadline))
		}
	})
}

// sendAll encodes grad once as message msg and ships that one encoded
// message to every destination in dsts, in order, using the worker's
// mode; with no destination it encodes nothing. The destinations share
// the packet buffers and the slices that list them: both are immutable
// once handed to the transport (netsim.Host.Send). failed receives the
// transport's error for one destination.
func (w *Worker) sendAll(dsts []netsim.NodeID, epoch uint64, msg uint32, grad []float32,
	failed func(dst netsim.NodeID, err error)) error {
	if len(dsts) == 0 {
		return nil
	}
	m, err := w.enc.EncodeParallel(epoch, msg, grad, 0)
	if err != nil {
		return err
	}
	var all [][]byte
	if w.Mode != Trimmable {
		all = slices.Concat(m.Meta, m.Data)
	}
	for _, dst := range dsts {
		fail := func(err error) { failed(dst, err) }
		if w.Mode == Trimmable {
			w.Stack.SendTrimmable(dst, msg, m.Meta, m.Data, nil, fail)
		} else {
			w.Stack.SendReliable(dst, msg, all, nil, fail)
		}
	}
	return nil
}
