package collective

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
)

// Every operation that sends one tensor to several destinations encodes
// it once and hands the same packet buffers to each destination's
// transport sender. Nothing a simulation can observe may depend on that,
// nor on how the operations are written: testdata/fanout_digests.txt pins
// every operation, mode and fault cell — outcomes, stats and each rank's
// collective.* phase spans — and each must still reproduce.

var updateFanout = flag.Bool("update-fanout", false,
	"re-record testdata/fanout_digests.txt (only from a tree known to be right)")

const fanoutGolden = "testdata/fanout_digests.txt"

// fanoutOp is one collective operation: run starts it over ws, feeding
// every per-rank outcome to done or fail; tensors is how many distinct
// full-length tensors n workers encode in one clean run (nil for ring,
// whose chunks are not full tensors and go to one neighbour each).
type fanoutOp struct {
	name    string
	run     func(ws []*Worker, seed uint64, dim int, done func(rank int, vecs [][]float32, at netsim.Time), fail func(rank int, err error)) error
	tensors func(n int) int
}

func fanoutGrads(n int, seed uint64, dim int) [][]float32 {
	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = gaussianGrad(seed+uint64(i)+1, dim)
	}
	return grads
}

func fanoutAllReduce(alg Algorithm, tensors func(n int) int) fanoutOp {
	return fanoutOp{
		name: alg.String(),
		run: func(ws []*Worker, seed uint64, dim int, done func(int, [][]float32, netsim.Time), fail func(int, error)) error {
			return AllReduce(alg, 1, 100, ws, fanoutGrads(len(ws), seed, dim),
				func(rank int, avg []float32, at netsim.Time) { done(rank, [][]float32{avg}, at) }, fail)
		},
		tensors: tensors,
	}
}

func fanoutOps() []fanoutOp {
	return []fanoutOp{
		// n−1 client gradients and one broadcast average.
		fanoutAllReduce(AlgParamServer, func(n int) int { return n }),
		fanoutAllReduce(AlgDirect, func(n int) int { return n }),
		fanoutAllReduce(AlgRing, nil),
		// One full vector per exchange step (n = 8 is a power of two: no
		// pre or post fold).
		fanoutAllReduce(AlgRecursiveDoubling, func(n int) int { return n * (rdSteps(n) - 2) }),
		// Members' gradients, then every leader's group sum (when there is
		// another leader) and average (when it has members).
		fanoutAllReduce(AlgHierarchical, func(n int) int {
			g := int(math.Ceil(math.Sqrt(float64(n))))
			off := chunkOffsets(n, g)
			tensors := n - g
			for j := 0; j < g; j++ {
				if g > 1 {
					tensors++
				}
				if off[j+1]-off[j] > 1 {
					tensors++
				}
			}
			return tensors
		}),
		{
			name: "allgather",
			run: func(ws []*Worker, seed uint64, dim int, done func(int, [][]float32, netsim.Time), fail func(int, error)) error {
				return AllGather(1, 100, ws, fanoutGrads(len(ws), seed, dim), done, fail)
			},
			tensors: func(n int) int { return n },
		},
	}
}

// fanoutScenarios are the cells each operation runs in: an uncontended and
// a congested 8-worker star, then the chaos matrix's 3-worker fault cells.
func fanoutScenarios() []collChaosScenario {
	return append([]collChaosScenario{
		{name: "clean", crash: -1, partition: -1},
		{name: "congested", crash: -1, partition: -1},
	}, collChaosScenarios()...)
}

// runFanout runs op once under sc and returns the digest of everything the
// run produced: each rank's outcome, time and vectors, its AggStats, its
// transport Stats and its collective.* spans. reg, when non-nil, is the
// registry bound to the fabric; otherwise a fresh one is.
func runFanout(t *testing.T, op fanoutOp, mode Mode, sc collChaosScenario, reg *obs.Registry) (digest string, ws []*Worker, dim int) {
	t.Helper()
	const seed = 42
	n, dim := 3, 2048
	link := fast()
	q := netsim.QueueConfig{CapacityBytes: 8 << 20, Mode: netsim.TrimOverflow}
	cfg := transport.Config{RTO: 100 * netsim.Microsecond, MaxRetries: 16}
	switch sc.name {
	case "clean":
		n, cfg = 8, transport.Config{}
	case "congested":
		n, dim, cfg = 8, 1<<12, transport.Config{}
		link = netsim.LinkConfig{Bandwidth: netsim.Mbps(200), Delay: 2 * netsim.Microsecond}
		q = netsim.QueueConfig{CapacityBytes: 6000, HighCapacityBytes: 64 << 10, Mode: netsim.TrimOverflow}
		if mode == Reliable {
			q.Mode = netsim.DropTail
		}
	}
	if reg == nil {
		reg = obs.New()
	}
	sim := netsim.NewSim()
	star := netsim.NewStar(sim, n, link, q, netsim.WithRegistry(reg))
	ws = make([]*Worker, n)
	for i := range ws {
		w, err := New(i, newStack(star.Hosts[i], cfg), WithConfig(coreCfg(quant.RHT)), WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		w.Deadline = 100 * netsim.Millisecond
		ws[i] = w
	}
	sc.apply(star, seed)

	// Every operation reports one outcome per rank (the assertion
	// runChaosAllReduce makes, here over every operation and cell).
	outcomes := make([][]string, n)
	record := func(rank int, s string) {
		if len(outcomes[rank]) > 0 {
			t.Errorf("%s/%v/%s: rank %d reported %q after a prior outcome %q",
				op.name, mode, sc.name, rank, s, outcomes[rank])
		}
		outcomes[rank] = append(outcomes[rank], s)
	}
	err := op.run(ws, seed, dim,
		func(rank int, vecs [][]float32, at netsim.Time) {
			h := sha256.New()
			for _, v := range vecs {
				for _, x := range v {
					fmt.Fprintf(h, "%08x", math.Float32bits(x))
				}
				fmt.Fprintln(h)
			}
			record(rank, fmt.Sprintf("done at %d: %x", at, h.Sum(nil)))
		},
		func(rank int, err error) { record(rank, "error: "+err.Error()) })
	if err != nil {
		t.Fatalf("%s/%v/%s: %v", op.name, mode, sc.name, err)
	}
	sim.RunUntil(netsim.Second)

	spans := make([][]string, n)
	for _, sp := range reg.Snapshot().Spans {
		if rank, ok := sp.Attr("rank"); ok && strings.HasPrefix(sp.Name, "collective.") {
			r, err := strconv.Atoi(rank)
			if err != nil {
				t.Fatal(err)
			}
			spans[r] = append(spans[r], fmt.Sprintf("%s %d %d", sp.Name, sp.Start, sp.End))
		}
	}
	h := sha256.New()
	for rank, w := range ws {
		fmt.Fprintf(h, "rank %d: %q\n agg %+v\n transport %+v\n spans %q\n",
			rank, outcomes[rank], w.AggStats, w.Stack.Stats, spans[rank])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8]), ws, dim
}

func readFanoutGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(fanoutGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if key, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[key] = digest
		}
	}
	return want
}

// TestFanoutMatchesPerDestinationEncode: onDone vectors and times, errors,
// AggStats and transport Stats of every one-to-many operation equal what
// the per-destination encode produced, in both modes and every cell.
func TestFanoutMatchesPerDestinationEncode(t *testing.T) {
	got := map[string]string{}
	for _, op := range fanoutOps() {
		for _, mode := range []Mode{Reliable, Trimmable} {
			for _, sc := range fanoutScenarios() {
				key := op.name + "/" + mode.String() + "/" + sc.name
				digest, ws, _ := runFanout(t, op, mode, sc, nil)
				got[key] = digest
				if sc.name == "congested" && op.name != "ring" && op.name != "rd" {
					// The cell must really contend: trimmed coordinates or
					// retransmissions (ring and rd send to one peer per step,
					// so no egress port of the star carries two of their flows).
					trimmed, retx := 0, 0
					for _, w := range ws {
						trimmed += w.AggStats.TrimmedCoords
						retx += w.Stack.Stats.Retransmits
					}
					if trimmed+retx == 0 {
						t.Errorf("%s: no contention (trimmed coords %d, retransmits %d)", key, trimmed, retx)
					}
				}
			}
		}
	}
	if *updateFanout {
		keys := make([]string, 0, len(got))
		for key := range got {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, key := range keys {
			fmt.Fprintf(&b, "%s %s\n", key, got[key])
		}
		if err := os.WriteFile(fanoutGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readFanoutGolden(t)
	if len(want) != len(got) {
		t.Errorf("%s holds %d cells, the matrix has %d", fanoutGolden, len(want), len(got))
	}
	for key, digest := range got {
		if want[key] != digest {
			t.Errorf("%s: digest %s, recorded %s", key, digest, want[key])
		}
	}
}

// TestFanoutEncodesEachTensorOnce: the encode counters count tensors, not
// (tensor, destination) pairs.
func TestFanoutEncodesEachTensorOnce(t *testing.T) {
	clean := fanoutScenarios()[0]
	for _, op := range fanoutOps() {
		if op.tensors == nil {
			continue
		}
		for _, mode := range []Mode{Reliable, Trimmable} {
			reg := obs.New()
			_, ws, dim := runFanout(t, op, mode, clean, reg)
			rowSize := coreCfg(quant.RHT).RowSize
			want := int64(op.tensors(len(ws)) * ((dim + rowSize - 1) / rowSize))
			if got := reg.Snapshot().Counter("core.encode.rows_total"); got != want {
				t.Errorf("%s/%v: core.encode.rows_total = %d, want %d (%d tensors of %d rows)",
					op.name, mode, got, want, op.tensors(len(ws)), want/int64(op.tensors(len(ws))))
			}
		}
	}
}

// TestSendAllWithoutDestinations: a leader without members (or a lone
// worker) has nobody to send to, and must not encode for nobody.
func TestSendAllWithoutDestinations(t *testing.T) {
	reg := obs.New()
	sim := netsim.NewSim()
	star := netsim.NewStar(sim, 1, fast(), deepQ(), netsim.WithRegistry(reg))
	w, err := New(0, newStack(star.Hosts[0], transport.Config{}), WithConfig(coreCfg(quant.RHT)))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.sendAll(nil, 1, 100, gaussianGrad(1, 1024), nil); err != nil {
		t.Fatal(err)
	}
	if rows := reg.Snapshot().Counter("core.encode.rows_total"); rows != 0 {
		t.Errorf("core.encode.rows_total = %d after a send to nobody", rows)
	}
}
