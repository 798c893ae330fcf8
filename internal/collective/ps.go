package collective

import (
	"fmt"

	"trimgrad/internal/netsim"
	"trimgrad/internal/vecmath"
)

// AllReduceParamServer averages grads through a parameter server: every
// client (ranks 1..n−1) sends its gradient to rank 0 under the *same*
// message ID, the server folds them with a core.SumDecoder, adds its own
// gradient, and broadcasts the average back. The shared message ID is
// deliberate: all client flows carry identical aggregation keys, so an
// aggregating switch on the incast path (netsim's AggregateTrimmable) can
// fold their packets in flight — the SwitchML pattern — and the server's
// SumDecoder accepts switch-built aggregates and un-merged packets
// interchangeably.
//
// Message IDs baseMsg (reduce) and baseMsg+1 (broadcast) are consumed.
// onDone fires once per worker with the average; onError reports
// transport failures, deadline expiry, and decode errors, once per rank.
func AllReduceParamServer(epoch uint64, baseMsg uint32, workers []*Worker,
	grads [][]float32, onDone func(rank int, avg []float32, at netsim.Time),
	onError func(rank int, err error)) error {
	n := len(workers)
	dim, err := checkGrads(workers, grads)
	if err != nil {
		return err
	}
	if n == 1 {
		if onDone != nil {
			onDone(0, append([]float32(nil), grads[0]...),
				workers[0].Stack.Host().Sim().Now())
		}
		return nil
	}
	server := workers[0]
	serverID := server.Stack.Host().ID()
	ids := hostIDs(workers)
	clientOf := make(map[netsim.NodeID]bool, n-1)
	for _, id := range ids[1:] {
		clientOf[id] = true
	}
	opStart := server.Stack.Host().Sim().Now()

	// Server: one summing decoder folds every client's stream (and any
	// switch-built aggregates standing in for several of them).
	if err := server.registerSum(baseMsg, n-1); err != nil {
		return err
	}
	received := 0
	srvFailed := false
	srvFail := func(err error) {
		if srvFailed || received == n-1 {
			return
		}
		srvFailed = true
		server.abandon()
		if onError != nil {
			onError(0, err)
		}
	}
	server.onComplete = func(src netsim.NodeID, msg uint32, at netsim.Time) {
		if srvFailed || msg != baseMsg || !clientOf[src] {
			return
		}
		received++
		if received < n-1 {
			return
		}
		sum, err := server.reconstructSum(baseMsg, dim)
		if err != nil {
			srvFail(err)
			return
		}
		vecmath.Add(sum, grads[0])
		vecmath.Scale(sum, 1/float32(n))
		server.span("collective.ps.reduce", opStart, at)
		if onDone != nil {
			onDone(0, sum, at)
		}
		// The server's round is complete; broadcast failures route through
		// srvFail, whose received == n−1 guard makes them no-ops. The client
		// that missed the broadcast reports its own deadline error — the
		// server must not report a second outcome.
		if err := server.sendAll(ids[1:], epoch, baseMsg+1, sum, func(dst netsim.NodeID, err error) {
			srvFail(fmt.Errorf("collective: ps broadcast to %d: %w", dst, err))
		}); err != nil {
			srvFail(err)
		}
	}
	server.armDeadline(func() bool { return received == n-1 }, srvFail)

	// Clients: contribute under the shared reduce message, await the
	// broadcast average.
	for i := 1; i < n; i++ {
		i, w := i, workers[i]
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
		w.onComplete = func(src netsim.NodeID, msg uint32, at netsim.Time) {
			if failed || got || msg != baseMsg+1 || src != serverID {
				return
			}
			dec, err := w.reconstruct(src, msg, dim)
			if err != nil {
				fail(err)
				return
			}
			got = true
			w.span("collective.ps", opStart, at)
			if onDone != nil {
				onDone(i, dec, at)
			}
		}
		w.armDeadline(func() bool { return got }, fail)
		if err := w.send(serverID, epoch, baseMsg, grads[i], func(err error) {
			fail(fmt.Errorf("collective: ps reduce %d→0: %w", i, err))
		}); err != nil {
			return err
		}
	}
	return nil
}
