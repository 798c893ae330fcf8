package main

import (
	"fmt"
	"strconv"
	"strings"

	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
)

// sumCounters adds up every counter of snap whose name starts with prefix
// and ends with suffix — e.g. all per-host "transport.h<id>.<suffix>" or
// all per-port "netsim.port.<a>-><b>.<suffix>" instruments. Counts are
// read from the obs names only, never from the legacy Stats structs, so
// the benchmark survives their deletion.
func sumCounters(snap obs.Snapshot, prefix, suffix string) int64 {
	var total int64
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, prefix) && strings.HasSuffix(c.Name, suffix) {
			total += c.Value
		}
	}
	return total
}

// portOwner parses the owning node out of a "netsim.port.<owner>-><peer>.x"
// counter name.
func portOwner(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "netsim.port.")
	if !ok {
		return 0, false
	}
	arrow := strings.Index(rest, "->")
	if arrow < 0 {
		return 0, false
	}
	id, err := strconv.Atoi(rest[:arrow])
	return id, err == nil
}

// tierOf maps a node id to the name of its tier; hosts form their own.
func tierOf(topo *netsim.Topology) func(int) string {
	byID := map[int]string{}
	for _, tier := range topo.Tiers {
		for _, sw := range tier.Switches {
			byID[int(sw.ID())] = tier.Name
		}
	}
	return func(id int) string {
		if name, ok := byID[id]; ok {
			return name
		}
		return "host"
	}
}

// checkTierConservation verifies, on a snapshot taken after the engine ran
// to idle, that every tier transmitted exactly what it enqueued. Ports
// count a packet as enqueued only once admitted, so drops and trims sit
// outside this identity.
func checkTierConservation(snap obs.Snapshot, tier func(int) string) []string {
	enq, tx := map[string]int64{}, map[string]int64{}
	for _, c := range snap.Counters {
		owner, ok := portOwner(c.Name)
		if !ok {
			continue
		}
		switch {
		case strings.HasSuffix(c.Name, ".enqueued_total"):
			enq[tier(owner)] += c.Value
		case strings.HasSuffix(c.Name, ".transmitted_total"):
			tx[tier(owner)] += c.Value
		}
	}
	var fails []string
	for _, name := range keys(enq) {
		if enq[name] != tx[name] {
			fails = append(fails, fmt.Sprintf("tier %s: transmitted %d of %d enqueued packets at idle", name, tx[name], enq[name]))
		}
	}
	return fails
}

// simCounters sums, over the traced iterations, the counts read from
// obs.Snapshot counter names, from the engine and from the runtime.
type simCounters struct {
	enqueued, trimmed, dropped                              int64
	dataSent, retransmits, timeouts, nacks, trimmedReceived int64
	events, mallocs                                         uint64
	snapshotNs                                              int64
	tierFailures                                            []string
}

// fold adds one iteration's snapshot, taken after the simulator ran to
// idle, and checks per-tier conservation on it.
func (c *simCounters) fold(snap obs.Snapshot, tier func(int) string) {
	c.enqueued += sumCounters(snap, "netsim.port.", ".enqueued_total")
	c.trimmed += sumCounters(snap, "netsim.port.", ".trimmed_total")
	c.dropped += sumCounters(snap, "netsim.port.", ".dropped_total")
	c.dataSent += sumCounters(snap, "transport.h", ".data_sent_total")
	c.retransmits += sumCounters(snap, "transport.h", ".retransmits_total")
	c.timeouts += sumCounters(snap, "transport.h", ".timeouts_total")
	c.nacks += sumCounters(snap, "transport.h", ".nacks_sent_total")
	c.trimmedReceived += sumCounters(snap, "transport.h", ".trimmed_received_total")
	c.tierFailures = append(c.tierFailures, checkTierConservation(snap, tier)...)
}

// metrics turns n traced iterations' spans and counters into the netsim,
// transport and obs layer metrics. Times are seconds per iteration; counts
// are per iteration and exact for a seed. A port counts a packet as
// enqueued only once admitted, so arrivals are enqueued + dropped and the
// trim and drop shares are taken of that.
func (c *simCounters) metrics(spans []span, n int) map[string]float64 {
	rows := shareTable(spans)
	per := func(v int64) float64 { return float64(v) / float64(n) }
	runS := spanSeconds(spans, n, "netsim.run")
	events := float64(c.events) / float64(n)
	return map[string]float64{
		"netsim.build_s":          spanSeconds(spans, n, "netsim.build"),
		"netsim.run_s":            runS,
		"netsim.run_self_s":       selfSeconds(rows, "netsim.run"),
		"netsim.events":           events,
		"netsim.ns_per_event":     runS * 1e9 / events,
		"netsim.events_per_s":     events / runS,
		"netsim.allocs_per_event": float64(c.mallocs) / float64(c.events),
		"netsim.enqueued":         per(c.enqueued),
		"netsim.trimmed":          per(c.trimmed),
		"netsim.dropped":          per(c.dropped),
		"netsim.trim_share":       ratio(c.trimmed, c.enqueued+c.dropped),
		"netsim.drop_share":       ratio(c.dropped, c.enqueued+c.dropped),
		"transport.inject_s":      spanSeconds(spans, n, "transport.inject"),
		"transport.rx_self_s":     selfSeconds(rows, "transport.rx"),
		"transport.data_sent":     per(c.dataSent),
		"transport.retransmits":   per(c.retransmits),
		"transport.timeouts":      per(c.timeouts),
		"transport.nacks":         per(c.nacks),
		"transport.trimmed_rx":    per(c.trimmedReceived),
		"transport.retx_ratio":    ratio(c.retransmits, c.dataSent),
		"obs.snapshot_ms":         float64(c.snapshotNs) / 1e6 / float64(n),
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
