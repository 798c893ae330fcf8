package trimgrad

import (
	"runtime"
	"runtime/debug"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/ml"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
)

// The allocation guards bound what the training round's two compute
// layers allocate per unit of work, in steady state, so the figure the
// benchmark reports as alloc_mb_per_iter cannot creep back between
// benchmark runs. The bounds were set from the code that draws a row's
// head and tail words from the par scratch pool and lets every layer keep
// its batch matrices; the encode bound is a few allocations above what that
// code measures and well below what the per-row makes cost.

func skipAllocGuard(t *testing.T) {
	t.Helper()
	if raceDetectorEnabled {
		t.Skip("allocation counts are a property of the uninstrumented build")
	}
}

// TestAllocGuardEncodeParallel: a steady-state EncodeParallel of
// train_k4_ps's gradient (45 214 floats in 2^11-coordinate RHT rows)
// allocates per row its six packets, its metadata packet, the slice that
// holds them and the row's descriptor — not the row's head and tail words.
func TestAllocGuardEncodeParallel(t *testing.T) {
	skipAllocGuard(t)
	const rowSize, maxPerRow = 1 << 11, 10.5
	grad := benchRow(32*256 + 256 + 256*128 + 128 + 128*30 + 30)
	rows := (len(grad) + rowSize - 1) / rowSize
	enc, err := core.NewEncoderWith(core.WithConfig(core.Config{
		Params: quant.Params{Scheme: quant.RHT}, RowSize: rowSize,
	}))
	if err != nil {
		t.Fatal(err)
	}
	msg := uint32(0)
	perRow := testing.AllocsPerRun(20, func() {
		msg++
		if _, err := enc.EncodeParallel(1, msg, grad, 0); err != nil {
			t.Fatal(err)
		}
	}) / float64(rows)
	t.Logf("%.2f allocations per row over %d rows", perRow, rows)
	if perRow > maxPerRow {
		t.Errorf("EncodeParallel allocates %.2f times per row, bound %.1f", perRow, maxPerRow)
	}
}

// TestAllocGuardForwardBackward: a warmed replica of the benchmark's
// 32-256-128-30 MLP runs Forward and Backward without allocating while its
// batch alternates 64 → 37 → 64: every batch matrix and live list is its
// layer's, sized from batch × width whatever share is live, and its kernels
// build no closure. (A round's other allocations — the loss gradient, the
// fan-out — are bounded by ddp's TestAllocGuardComputeRound, next to
// computeGrads.)
func TestAllocGuardForwardBackward(t *testing.T) {
	skipAllocGuard(t)
	const batch = 64
	model := ml.NewMLP(1, 32, 256, 128, 30).Replica()
	x := make([][]float32, batch)
	dLogits := make([][]float32, batch)
	for s := range x {
		x[s] = benchRow(32)
		dLogits[s] = benchRow(30)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, n := range []int{batch, 37, batch} {
			model.Forward(x[:n], true)
			model.Backward(dLogits[:n])
		}
	})
	if allocs != 0 {
		t.Errorf("a warmed replica's Forward+Backward passes at batches %d, 37, %d allocate %.0f times, want 0", batch, batch, allocs)
	}
}

// TestAllocGuardReceiveRound: the receive side of one parameter-server
// round of train_k4_ps's shape — the server's SumDecoder takes the seven
// clients' messages (45 214 floats in 2^11-coordinate RHT rows, a quarter
// of the packets trimmed) and reconstructs their sum, then each client's
// Decoder takes the broadcast and reconstructs it — allocates the eight
// gradients it hands back plus per-row bookkeeping (presence bitsets, the
// cached native decoders), not the rows: accumulators come from the scratch
// pool and go back at Release, and a packet is decoded where it lands.
func TestAllocGuardReceiveRound(t *testing.T) {
	skipAllocGuard(t)
	const (
		workers = 8
		rowSize = 1 << 11
		slack   = 288 << 10 // bytes beyond the gradients; 224 KB measured
	)
	grad := benchRow(32*256 + 256 + 256*128 + 128 + 128*30 + 30)
	rows := (len(grad) + rowSize - 1) / rowSize
	cfg := core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: rowSize}
	encode := func(flow uint32, msg uint32) [][]byte {
		cfg := cfg
		cfg.Flow = flow
		enc, err := core.NewEncoderWith(core.WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		m, err := enc.EncodeParallel(1, msg, grad, 0)
		if err != nil {
			t.Fatal(err)
		}
		trimmer := core.NewTrimmer(0.25, uint64(flow)+1)
		for i, pkt := range m.Data {
			m.Data[i] = trimmer.Apply(pkt)
		}
		return append(m.Meta, m.Data...)
	}
	var reduce [][]byte
	for flow := uint32(1); flow < workers; flow++ {
		reduce = append(reduce, encode(flow, 1)...)
	}
	broadcast := encode(0, 2)

	round := func() {
		sum, err := core.NewSumDecoder(1, workers-1, core.WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, pkt := range reduce {
			if err := sum.Handle(pkt); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := sum.Reconstruct(len(grad)); err != nil {
			t.Fatal(err)
		}
		sum.Release()
		for client := 1; client < workers; client++ {
			dec, err := core.NewDecoderWith(2, core.WithConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			for _, pkt := range broadcast {
				if err := dec.Handle(pkt); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := dec.DecodeParallel(len(grad), 0); err != nil {
				t.Fatal(err)
			}
			dec.Release()
		}
	}
	round() // warm the scratch pool
	// A collection mid-round would empty the pool and charge the round for
	// refilling it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rounds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	gradients := uint64(workers * rows * rowSize * 4)
	t.Logf("%d bytes per round: %d of gradients + %d", perRound, gradients, perRound-gradients)
	if perRound > gradients+slack {
		t.Errorf("the receive side of a round allocates %d bytes, bound %d (8 gradients) + %d", perRound, gradients, slack)
	}
}

// TestAllocGuardTransportPerMessage: once a star's simulator is warm, a
// SendReliable and a SendTrimmable cost the same allocations at 64 packets
// as at 256. Control headers are one per message and direction, the packet
// index riding in Packet.Seq, and the reliable sender's in-flight set is a
// slice cleared at each RTO, not a map rebuilt; what remains is per
// message (sender, receiver, their slices, timers and headers).
//
// The cold-pool case starts each message on a fresh star, whose packet
// pool is empty: a SendTrimmable's data packets wait in the NIC queue as
// one run and each record is built when the wire takes it, so the pool
// grows to what is on the wire at once, and 1 024 data packets allocate
// as often as 64.
func TestAllocGuardTransportPerMessage(t *testing.T) {
	skipAllocGuard(t)
	spec := netsim.FabricSpec{
		Kind: "star", N: 2,
		Link:  netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: netsim.Microsecond},
		Queue: netsim.QueueConfig{CapacityBytes: 1 << 20},
	}
	sim := netsim.NewSim()
	star, err := spec.Build(sim)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.NewEncoderWith(core.WithConfig(core.Config{
		Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 10,
	}))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := enc.Encode(1, 1, benchRow(1<<19))
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Data) < 1024 {
		t.Fatalf("the message has %d data packets, want 1 024", len(msg.Data))
	}
	id := uint32(0)
	send := func(trimmable bool, n int) func() {
		return func() {
			// Fresh stacks: a receiver keeps every message's state, so each
			// run starts from empty maps, a cost per run, not per packet.
			tx, err := transport.New(star.Hosts[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := transport.New(star.Hosts[1]); err != nil {
				t.Fatal(err)
			}
			id++
			done := false
			finish := func(netsim.Time) { done = true }
			fail := func(err error) { t.Fatal(err) }
			if trimmable {
				tx.SendTrimmable(1, id, msg.Meta[:1], msg.Data[:n], finish, fail)
			} else {
				tx.SendReliable(1, id, msg.Data[:n], finish, fail)
			}
			sim.Run()
			if !done {
				t.Fatalf("message %d did not complete", id)
			}
		}
	}
	for _, trimmable := range []bool{false, true} {
		send(trimmable, 256)() // size every queue and pool for the larger message
		small := testing.AllocsPerRun(10, send(trimmable, 64))
		large := testing.AllocsPerRun(10, send(trimmable, 256))
		t.Logf("trimmable=%v: %.0f allocations at 64 packets, %.0f at 256", trimmable, small, large)
		if small != large {
			t.Errorf("trimmable=%v: a message allocates %.0f times at 64 packets and %.0f at 256, want equal", trimmable, small, large)
		}
	}

	cold := func(n int) func() {
		return func() {
			sim := netsim.NewSim()
			star, err := spec.Build(sim)
			if err != nil {
				t.Fatal(err)
			}
			tx, err := transport.New(star.Hosts[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := transport.New(star.Hosts[1]); err != nil {
				t.Fatal(err)
			}
			done := false
			tx.SendTrimmable(1, 1, msg.Meta[:1], msg.Data[:n],
				func(netsim.Time) { done = true }, func(err error) { t.Fatal(err) })
			sim.Run()
			if !done {
				t.Fatalf("the %d-packet message did not complete", n)
			}
		}
	}
	small := testing.AllocsPerRun(5, cold(64))
	large := testing.AllocsPerRun(5, cold(1024))
	t.Logf("cold pool: %.0f allocations at 64 data packets, %.0f at 1 024", small, large)
	if small != large {
		t.Errorf("cold pool: a message allocates %.0f times at 64 data packets and %.0f at 1 024, want equal", small, large)
	}
}
