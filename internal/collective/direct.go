package collective

import (
	"fmt"

	"trimgrad/internal/netsim"
	"trimgrad/internal/vecmath"
)

// AllReduceDirect averages grads across all workers with the direct
// (all-to-all) algorithm: every worker sends its encoded gradient to every
// peer and averages what it decodes. It is the algorithm of the paper's
// two-server prototype and is bandwidth-optimal for small worker counts.
//
// Message IDs baseMsg..baseMsg+len(workers)-1 are consumed (one per rank).
// onDone fires once per worker, at the simulated time its average is
// ready; onError reports transport failures (baseline timeouts under heavy
// loss, §4.4).
func AllReduceDirect(epoch uint64, baseMsg uint32, workers []*Worker,
	grads [][]float32, onDone func(rank int, avg []float32, at netsim.Time),
	onError func(rank int, err error)) error {
	n := len(workers)
	dim, err := checkGrads(workers, grads)
	if err != nil {
		return err
	}
	ids := hostIDs(workers)
	opStart := workers[0].Stack.Host().Sim().Now()
	for i, w := range workers {
		i, w := i, w
		// Accumulate peers' gradients into a running sum seeded with our
		// own gradient.
		sum := append([]float32(nil), grads[i]...)
		received := 0
		failed := false
		fail := func(err error) {
			// One error per rank per operation: the first failure decides
			// the round, and a late completion must not follow an error.
			if failed || received == n-1 {
				return
			}
			failed = true
			w.abandon()
			if onError != nil {
				onError(i, err)
			}
		}
		w.onComplete = func(src netsim.NodeID, msg uint32, at netsim.Time) {
			if failed || msg < baseMsg || msg >= baseMsg+uint32(n) {
				return
			}
			dec, err := w.reconstruct(src, msg, dim)
			if err != nil {
				fail(err)
				return
			}
			vecmath.Add(sum, dec)
			received++
			if received == n-1 {
				vecmath.Scale(sum, 1/float32(n))
				w.span("collective.allreduce_direct", opStart, at)
				if onDone != nil {
					onDone(i, sum, at)
				}
			}
		}
		w.armDeadline(func() bool { return received == n-1 }, fail)
		// Send our gradient to every peer.
		err := w.sendAll(others(ids, i), epoch, baseMsg+uint32(i), grads[i], func(dst netsim.NodeID, err error) {
			fail(fmt.Errorf("collective: send %d→%d: %w", i, dst, err))
		})
		if err != nil {
			return err
		}
	}
	// Single-worker degenerate case completes immediately.
	if n == 1 {
		if onDone != nil {
			avg := append([]float32(nil), grads[0]...)
			onDone(0, avg, workers[0].Stack.Host().Sim().Now())
		}
	}
	return nil
}

// AllGather distributes every worker's shard to every other worker (§5.5's
// FSDP weight gathering). onDone delivers the shards indexed by rank.
func AllGather(epoch uint64, baseMsg uint32, workers []*Worker,
	shards [][]float32, onDone func(rank int, gathered [][]float32, at netsim.Time),
	onError func(rank int, err error)) error {
	n := len(workers)
	if n == 0 || len(shards) != n {
		return fmt.Errorf("collective: %d workers, %d shards", n, len(shards))
	}
	ids := hostIDs(workers)
	rankOf := make(map[netsim.NodeID]int, n)
	for i, id := range ids {
		rankOf[id] = i
	}
	opStart := workers[0].Stack.Host().Sim().Now()
	for i, w := range workers {
		i, w := i, w
		gathered := make([][]float32, n)
		gathered[i] = append([]float32(nil), shards[i]...)
		received := 0
		failed := false
		fail := func(err error) {
			if failed || received == n-1 {
				return
			}
			failed = true
			w.abandon()
			if onError != nil {
				onError(i, err)
			}
		}
		w.onComplete = func(src netsim.NodeID, msg uint32, at netsim.Time) {
			if failed || msg < baseMsg || msg >= baseMsg+uint32(n) {
				return
			}
			srcRank, ok := rankOf[src]
			if !ok {
				return
			}
			dec, err := w.reconstruct(src, msg, len(shards[srcRank]))
			if err != nil {
				fail(err)
				return
			}
			gathered[srcRank] = dec
			received++
			if received == n-1 {
				w.span("collective.allgather", opStart, at)
				if onDone != nil {
					onDone(i, gathered, at)
				}
			}
		}
		w.armDeadline(func() bool { return received == n-1 }, fail)
		err := w.sendAll(others(ids, i), epoch, baseMsg+uint32(i), shards[i], func(dst netsim.NodeID, err error) {
			fail(fmt.Errorf("collective: send %d→%d: %w", i, dst, err))
		})
		if err != nil {
			return err
		}
	}
	if n == 1 {
		if onDone != nil {
			onDone(0, [][]float32{append([]float32(nil), shards[0]...)},
				workers[0].Stack.Host().Sim().Now())
		}
	}
	return nil
}

// Broadcast sends root's tensor to every other worker. onDone fires for
// every non-root worker with its decoded copy (and for root immediately).
func Broadcast(epoch uint64, msg uint32, workers []*Worker, root int,
	tensor []float32, onDone func(rank int, copy []float32, at netsim.Time),
	onError func(rank int, err error)) error {
	n := len(workers)
	if root < 0 || root >= n {
		return fmt.Errorf("collective: bad root %d", root)
	}
	rootID := workers[root].Stack.Host().ID()
	opStart := workers[root].Stack.Host().Sim().Now()
	for i, w := range workers {
		if i == root {
			continue
		}
		i, w := i, w
		got := false
		failed := false
		fail := func(err error) {
			if failed || got {
				return
			}
			failed = true
			w.abandon()
			if onError != nil {
				onError(i, err)
			}
		}
		w.onComplete = func(src netsim.NodeID, m uint32, at netsim.Time) {
			if failed || m != msg || src != rootID {
				return
			}
			dec, err := w.reconstruct(src, m, len(tensor))
			if err != nil {
				fail(err)
				return
			}
			got = true
			w.span("collective.broadcast", opStart, at)
			if onDone != nil {
				onDone(i, dec, at)
			}
		}
		w.armDeadline(func() bool { return got }, fail)
	}
	ids := hostIDs(workers)
	err := workers[root].sendAll(others(ids, root), epoch, msg, tensor, func(dst netsim.NodeID, err error) {
		if onError != nil {
			onError(root, fmt.Errorf("collective: broadcast to %d: %w", dst, err))
		}
	})
	if err != nil {
		return err
	}
	if onDone != nil {
		onDone(root, append([]float32(nil), tensor...),
			workers[root].Stack.Host().Sim().Now())
	}
	return nil
}
