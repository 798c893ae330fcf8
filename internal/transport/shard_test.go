package transport

import (
	"slices"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
)

// shardIncast runs an 8-sender incast to host 0 of a k = 4 fat tree with
// queues q, split over shards, and returns every sender's completion time,
// then the receiver's per message, plus the retransmissions all stacks
// made and the packets switches folded into aggregates. A message's control
// headers are built once on its sender's shard and read by the receiver's
// (and, for aggregates, a switch's): sharing them is only sound because
// nobody writes them after Host.Send.
func shardIncast(t *testing.T, shards int, q netsim.QueueConfig, trimmable, aggregate bool) (done []netsim.Time, retx, merged int) {
	t.Helper()
	sim := netsim.NewSim()
	topo, err := netsim.FabricSpec{
		Kind:     "fattree",
		K:        4,
		Link:     netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 2 * netsim.Microsecond},
		Queue:    q,
		ECMPSeed: 5,
	}.Build(sim)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := netsim.ShardTopology(topo, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	cfg := Config{RTO: 100 * netsim.Microsecond, MaxRetries: 200}
	stacks := make([]*Stack, len(topo.Hosts))
	for i, h := range topo.Hosts {
		stacks[i] = newStack(h, cfg)
	}
	const senders = 8
	done = make([]netsim.Time, 2*senders)
	stacks[0].OnMessageComplete = func(src netsim.NodeID, _ uint32, at netsim.Time) {
		done[senders+len(topo.Hosts)-1-int(src)] = at
	}
	for s := 0; s < senders; s++ {
		ccfg, id := coreConfig(), uint32(s+1)
		if aggregate {
			ccfg.Flow, id = uint32(s+1), 1
		}
		enc, err := core.NewEncoderWith(core.WithConfig(ccfg))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := enc.Encode(1, id, gaussianGrad(uint64(70+s), 1<<13))
		if err != nil {
			t.Fatal(err)
		}
		src := len(topo.Hosts) - 1 - s // other pods first: the longest paths
		finish := func(at netsim.Time) { done[s] = at }
		fail := func(err error) { t.Errorf("sender %d failed: %v", s, err) }
		if trimmable {
			stacks[src].SendTrimmable(0, msg.ID, msg.Meta, msg.Data, finish, fail)
		} else {
			stacks[src].SendReliable(0, msg.ID, allPayloads(msg), finish, fail)
		}
	}
	eng.RunUntil(5 * netsim.Second)
	if err := topo.Net.Audit(); err != nil {
		t.Fatal(err)
	}
	for _, st := range stacks {
		retx += st.Stats.Retransmits
	}
	for _, sw := range topo.Switches() {
		for _, p := range sw.Ports() {
			merged += p.Stats.Aggregated
		}
	}
	return done, retx, merged
}

// TestShardTransportHeaders: reliable, trimmable and aggregated incasts
// whose control headers cross a shard boundary complete at the same
// simulated times on 1 and 2 shards, and the race detector (check.sh full
// mode) sees no write to a shared header.
func TestShardTransportHeaders(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		q                    netsim.QueueConfig
		trimmable, aggregate bool
	}{
		{"reliable", netsim.QueueConfig{CapacityBytes: 12000, ECNThresholdBytes: 6000}, false, false},
		{"trimmable", netsim.QueueConfig{CapacityBytes: 6000, HighCapacityBytes: 1200, Mode: netsim.TrimOverflow}, true, false},
		{"aggregated", netsim.QueueConfig{CapacityBytes: 6000, HighCapacityBytes: 1 << 20, Mode: netsim.TrimOverflow, AggregateTrimmable: true}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			one, retx, merged := shardIncast(t, 1, tc.q, tc.trimmable, tc.aggregate)
			two, _, _ := shardIncast(t, 2, tc.q, tc.trimmable, tc.aggregate)
			if slices.Contains(one, 0) {
				t.Fatalf("a message did not complete: %v", one)
			}
			if !slices.Equal(one, two) {
				t.Fatalf("completion times moved with the shard count:\n1 shard:  %v\n2 shards: %v", one, two)
			}
			if retx == 0 || tc.aggregate && merged == 0 {
				t.Fatalf("scenario too gentle: retransmits=%d aggregated=%d", retx, merged)
			}
		})
	}
}
