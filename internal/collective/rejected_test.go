package collective

import (
	"testing"

	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
)

// TestWorkerCountsCorruptPayloads pins the fix for the silently swallowed
// decode error in handlePayload: a payload that is not a trimgrad packet
// must land in AggStats.RejectedPackets, not vanish, so congestion runs
// can tell "trimmed" from "corrupt".
func TestWorkerCountsCorruptPayloads(t *testing.T) {
	sim := netsim.NewSim()
	star := netsim.NewStar(sim, 2, fast(), netsim.QueueConfig{CapacityBytes: 1 << 20})
	st := newStack(star.Hosts[0], transport.Config{})
	w, err := New(0, st, WithConfig(coreCfg(quant.RHT)), WithMode(Trimmable))
	if err != nil {
		t.Fatal(err)
	}
	st.Receiver.HandlePayload(netsim.NodeID(1), []byte{0xde, 0xad, 0xbe})
	st.Receiver.HandlePayload(netsim.NodeID(1), nil)
	if got := w.AggStats.RejectedPackets; got != 2 {
		t.Fatalf("RejectedPackets = %d after 2 corrupt payloads, want 2", got)
	}
}
