package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"time"

	"trimgrad/internal/netsim"
	"trimgrad/internal/transport"
	"trimgrad/internal/xrand"
)

// config sizes the workloads. fullConfig is what the benchmark measures;
// smokeConfig is the scaled-down shape bench_test.go drives so that API
// drift in any layer fails `go test ./...` long before it fails a
// benchmark run.
type config struct {
	fabricK      int // fat-tree arity of the three fabric workloads
	msgDim       int // coordinates per fabric message
	codecDim     int // coordinates of the codec_exchange gradient
	trainSamples int
	testSamples  int
	trainEpochs  int
}

var (
	fullConfig  = config{fabricK: 8, msgDim: 1 << 16, codecDim: 1 << 20, trainSamples: 3000, testSamples: 800, trainEpochs: 2}
	smokeConfig = config{fabricK: 4, msgDim: 1 << 13, codecDim: 1 << 15, trainSamples: 512, testSamples: 128, trainEpochs: 1}
)

// gradStd is the standard deviation of every generated gradient: seeded
// N(0, 0.05²), the scale of a mid-training dense-layer gradient.
const gradStd = 0.05

// normalGradient fills a fresh n-float gradient from seed.
func normalGradient(n int, seed uint64) []float32 {
	rng := xrand.New(seed)
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(rng.NormFloat64() * gradStd)
	}
	return g
}

// iterOut is what one closed-loop iteration hands back to the driver. Only
// the fields a workload has are set; the driver folds whichever are
// present into metrics.
type iterOut struct {
	hostNs    int64 // host time of the timed region
	gradBytes int64 // float32 gradient bytes carried source→destination

	// Fabric workloads (and the simulated part of training).
	simNs  int64   // simulated ns until the last flow completed
	runNs  int64   // host ns inside RunUntil
	fcts   []int64 // simulated flow completion times, ns
	events uint64  // simulator events executed

	// train_k4_ps.
	simWallS float64 // Result.WallTotal
	top1     float64 // Result.FinalTop1

	// codec_exchange: decode NMSE per scheme.
	nmse map[string]float64

	attempted int
	failed    int
	failures  []string
	digest    [sha256.Size]byte
}

func (o *iterOut) fail(msg string) {
	o.failed++
	o.failures = append(o.failures, msg)
}

// A workload is one set of inputs the benchmark runs, closed loop with one
// client: the next iteration starts when the previous one completes.
type workload interface {
	// setup builds every input from the seed (gradient or dataset
	// generation, message pre-encoding). The driver times it.
	setup() error
	// iterate runs iteration i on inputs derived from xrand.Seed(seed, i).
	// A non-nil tracer records spans around the calls into each layer.
	iterate(i int, tr *tracer) iterOut
	// verify re-runs iteration i and reports every way its simulated
	// outcome differs from ref, the result of the measured run: the
	// same-seed-twice digest check, plus the workload's own cross-checks.
	verify(i int, ref iterOut) []string
	// layers returns the per-layer metrics only this workload can
	// measure, from the traced iterations just run (spans, n of them),
	// and the failures of the checks made on the traced counters.
	layers(spans []span, n int) (map[string]float64, []string)
	// codecSample is what the workload pushes through the codec, for the
	// quant/fwht/wire/core/par layer timings.
	codecSample() codecSample
	// extraArm runs the workload's additional traced-pass arm over the
	// same n iterations (other shard count; untraced unrolled loop) and
	// returns its metrics and cross-check failures. A non-zero baseMs is
	// the median untraced iteration the tracing overhead is taken against,
	// for a workload whose traced arm is not iterate itself.
	extraArm(n int, ref []iterOut) (m map[string]float64, baseMs float64, fails []string)
}

// digestBuilder hashes simulated outcomes into a digest that repeats
// exactly for a seed.
type digestBuilder struct{ buf []byte }

func (d *digestBuilder) u64(v uint64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
}

// f32s folds the exact bits of v in with one FNV-1a step per float — a
// megafloat gradient costs a millisecond, not a SHA pass over 4 MB.
func (d *digestBuilder) f32s(v []float32) {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h = (h ^ uint64(math.Float32bits(x))) * 1099511628211
	}
	d.u64(uint64(len(v)))
	d.u64(h)
}

func (d *digestBuilder) sum() [sha256.Size]byte { return sha256.Sum256(d.buf) }

// foldDigests combines per-iteration digests, in order, into one.
func foldDigests(outs []iterOut) string {
	h := sha256.New()
	for i := range outs {
		h.Write(outs[i].digest[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func shortDigest(d [sha256.Size]byte) string { return hex.EncodeToString(d[:8]) }

// hostAcc accumulates the host time one host's callbacks consumed during
// a traced iteration. One per host, written only by the goroutine that
// runs that host's events (its shard), and sized to a cache line so two
// shards never share one.
type hostAcc struct {
	rxNs, rxN int64 // Host.Handler: the transport receive path
	upNs, upN int64 // Stack.Receiver + OnMessageComplete: the layer above
	msgs      int64 // OnMessageComplete calls: messages completed here
	// -handicap shares for the two wrappers (0 = none), and the busy-wait
	// they owe but have not yet spun.
	handicapRx, handicapUp float64
	debt                   time.Duration
}

// spinQuantum is the least busy-wait worth spinning. A handler call lasts
// a few hundred nanoseconds and 5 % of that is below the clock's own cost,
// so the handicap is owed per call and paid in quanta — inside whichever
// wrapper call crosses the quantum, hence still charged to its layer.
const spinQuantum = 2 * time.Microsecond

// lap adds the time since t, plus any handicap busy-wait now due, to one
// accumulator pair.
func (a *hostAcc) lap(t time.Time, handicap float64, ns, n *int64) {
	d := time.Since(t)
	if handicap > 0 {
		if a.debt += time.Duration(float64(d) * handicap); a.debt >= spinQuantum {
			spin(a.debt)
			a.debt = 0
			d = time.Since(t)
		}
	}
	*ns += int64(d)
	*n++
}

// wrapStack installs the traced-pass wrappers: one over the Host.Handler
// that transport.New set, one over Stack.Receiver and one over
// OnMessageComplete, each adding its host time to acc.
func wrapStack(h *netsim.Host, s *transport.Stack, acc *hostAcc) {
	inner := h.Handler
	h.Handler = func(p *netsim.Packet) {
		t := time.Now()
		inner(p)
		acc.lap(t, acc.handicapRx, &acc.rxNs, &acc.rxN)
	}
	if rcv := s.Receiver; rcv != nil {
		s.Receiver = transport.ReceiverFunc(func(src netsim.NodeID, payload []byte) {
			t := time.Now()
			rcv.HandlePayload(src, payload)
			acc.lap(t, acc.handicapUp, &acc.upNs, &acc.upN)
		})
	}
	if done := s.OnMessageComplete; done != nil {
		s.OnMessageComplete = func(src netsim.NodeID, msg uint32, at netsim.Time) {
			t := time.Now()
			done(src, msg, at)
			acc.lap(t, acc.handicapUp, &acc.upNs, &acc.upN)
			acc.msgs++
		}
	}
}

// foldAccs emits the aggregate spans for one traced iteration: rxName
// under the run span, aboveName nested inside it. Host time summed over
// hosts is divided by the number of shard goroutines that ran them in
// parallel, so the aggregates stay within the wall time of the run.
func foldAccs(tr *tracer, run int, accs []hostAcc, shards int, rxName, aboveName string) {
	var rxNs, rxN, upNs, upN int64
	for i := range accs {
		rxNs += accs[i].rxNs
		rxN += accs[i].rxN
		upNs += accs[i].upNs
		upN += accs[i].upN
	}
	rx := tr.aggregate(rxName, run, rxNs/int64(shards), rxN)
	tr.aggregate(aboveName, rx, upNs/int64(shards), upN)
}
