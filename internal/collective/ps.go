package collective

import "fmt"

// psPlan is rank i's part in the parameter-server all-reduce: every client
// (ranks 1..n−1) sends its gradient to rank 0 under the *same* message ID
// base; the server folds them with one core.SumDecoder, adds its own
// gradient to the sum (no copy of it is made), and sends the average back
// as base+1 after it completes. The shared message ID is deliberate: all
// client flows carry identical aggregation keys, so an aggregating switch
// on the incast path (netsim's AggregateTrimmable) can fold their packets
// in flight — the SwitchML pattern — and the server's SumDecoder accepts
// switch-built aggregates and un-merged packets interchangeably. 2
// message IDs.
func psPlan(n, dim int, base uint32, i int) plan {
	if i > 0 {
		return plan{
			groups: []group{{from: []recv{{0, base + 1}}, fold: foldAdopt, hi: dim, after: atStart}},
			sends: []send{{to: []int{0}, msg: base, in: true, hi: dim,
				on: atStart, label: fmt.Sprintf("ps reduce %d→0", i)}},
			phases: []phase{{"collective.ps", atDone}},
		}
	}
	clients := peers(n, 0)
	p := plan{addIn: true, scale: true, phases: []phase{{"collective.ps.reduce", atDone}},
		sends: []send{{to: clients, msg: base + 1, hi: dim, on: atDone, label: "ps broadcast 0", dst: true}}}
	if n > 1 {
		gr := group{fold: foldSum, hi: dim, after: atStart}
		for _, c := range clients {
			gr.from = append(gr.from, recv{c, base})
		}
		p.groups = []group{gr}
	}
	return p
}
