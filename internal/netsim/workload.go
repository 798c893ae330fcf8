package netsim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"trimgrad/internal/xrand"
)

// Workload generators: reusable traffic patterns over a Topology's hosts,
// so experiments pick topology × workload × collective × trim from a
// scenario matrix instead of bespoke wiring. A Workload is data — a named
// list of flows over host *indices* (not NodeIDs) — and composes by
// Merge. Gradient flows are driven by the caller (a transport send or a
// collective round per (src, dst) pair); open-loop background classes
// (mice, elephants) are Poisson CrossTraffic streams that StartBackground
// launches directly.

// FlowClass labels what a workload flow models.
type FlowClass uint8

const (
	// FlowGradient is a finite gradient transfer the caller drives
	// through a transport (SendTrimmable/SendReliable or a collective).
	FlowGradient FlowClass = iota
	// FlowMouse is open-loop short-packet background traffic (RPCs,
	// queries): the "mice" of the mice/elephant mix.
	FlowMouse
	// FlowElephant is open-loop MTU-sized background traffic (storage,
	// replication): the long-lived flows trimming must cut through.
	FlowElephant
)

// String names the class.
func (c FlowClass) String() string {
	switch c {
	case FlowGradient:
		return "gradient"
	case FlowMouse:
		return "mouse"
	case FlowElephant:
		return "elephant"
	}
	return fmt.Sprintf("FlowClass(%d)", int(c))
}

// Flow is one workload flow between two hosts, identified by index into
// Topology.Hosts. Rate and PacketSize apply to open-loop classes only.
type Flow struct {
	Src, Dst   int
	Class      FlowClass
	Rate       float64 // packets/s (Poisson), open-loop classes
	PacketSize int     // wire bytes per packet, open-loop classes
}

// Workload is a named set of flows.
type Workload struct {
	Name  string
	Flows []Flow
}

// GradientFlows returns the finite flows the caller must drive, in
// declaration order.
func (w Workload) GradientFlows() []Flow {
	var out []Flow
	for _, f := range w.Flows {
		if f.Class == FlowGradient {
			out = append(out, f)
		}
	}
	return out
}

// StartBackground launches every open-loop flow as Poisson cross traffic
// on t and returns the generators (for Stop and Sent accounting).
// Gradient flows are skipped — they are the caller's to drive. Each
// stream derives an independent arrival process from (seed, flow index)
// and a distinct FlowID, so ECMP fabrics spread background flows across
// paths instead of hashing them all together.
func (w Workload) StartBackground(t *Topology, seed uint64) []*CrossTraffic {
	var cts []*CrossTraffic
	for i, f := range w.Flows {
		if f.Class == FlowGradient || f.Rate <= 0 {
			continue
		}
		ct := NewCrossTraffic(t.Hosts[f.Src], t.Hosts[f.Dst].ID(),
			f.PacketSize, f.Rate, xrand.Seed(seed, uint64(i)))
		// Background FlowIDs count down from MaxUint64 (the legacy cross
		// id) so they never collide with transport-assigned flow ids.
		ct.FlowID = math.MaxUint64 - uint64(i)
		ct.Start()
		cts = append(cts, ct)
	}
	return cts
}

// Incast builds the paper's motivating pattern: fan senders (hosts
// 0..fan-1) each ship one gradient to the last host. fan is clamped to
// n-1 so the target never sends to itself.
func Incast(n, fan int) Workload {
	if fan > n-1 {
		fan = n - 1
	}
	w := Workload{Name: "incast"}
	for i := 0; i < fan; i++ {
		w.Flows = append(w.Flows, Flow{Src: i, Dst: n - 1, Class: FlowGradient})
	}
	return w
}

// AllToAll builds the dense collective pattern: every ordered host pair
// exchanges one gradient.
func AllToAll(n int) Workload {
	w := Workload{Name: "alltoall"}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				w.Flows = append(w.Flows, Flow{Src: i, Dst: j, Class: FlowGradient})
			}
		}
	}
	return w
}

// Permutation builds a seeded random permutation pattern: every host
// sends one gradient to a distinct peer, no host to itself — the classic
// fabric load-balancing stressor (each flow must find its own path). The
// same seed yields the same permutation forever.
func Permutation(n int, seed uint64) Workload {
	w := Workload{Name: "permutation"}
	if n < 2 {
		return w
	}
	// A uniform random cyclic rotation is derangement by construction:
	// host p[i] sends to p[(i+1) mod n].
	p := xrand.New(xrand.Seed(seed, 0x9e71)).Perm(n)
	for i := 0; i < n; i++ {
		w.Flows = append(w.Flows, Flow{Src: p[i], Dst: p[(i+1)%n], Class: FlowGradient})
	}
	return w
}

// Background packet sizes: mice are single-MTU-fraction RPCs, elephants
// full MTU bulk.
const (
	MousePacketSize    = 200
	ElephantPacketSize = 1500
)

// BackgroundMix builds the mice/elephant background load: every host runs
// one mouse stream and every fourth host one elephant stream, each toward
// a seeded random distinct peer. Rates are per-stream packets/s; a zero
// rate drops that class. Merge it with a gradient workload to model
// training traffic sharing the fabric.
func BackgroundMix(n int, miceRate, elephantRate float64, seed uint64) Workload {
	w := Workload{Name: "background"}
	if n < 2 {
		return w
	}
	rng := xrand.New(xrand.Seed(seed, 0xb9))
	pick := func(not int) int {
		d := rng.Intn(n - 1)
		if d >= not {
			d++
		}
		return d
	}
	for i := 0; i < n; i++ {
		if miceRate > 0 {
			w.Flows = append(w.Flows, Flow{
				Src: i, Dst: pick(i), Class: FlowMouse,
				Rate: miceRate, PacketSize: MousePacketSize,
			})
		}
		if elephantRate > 0 && i%4 == 0 {
			w.Flows = append(w.Flows, Flow{
				Src: i, Dst: pick(i), Class: FlowElephant,
				Rate: elephantRate, PacketSize: ElephantPacketSize,
			})
		}
	}
	return w
}

// ParseWorkload resolves a CLI -workload flag value over n hosts. The
// grammar is kind[:count]: "incast" fans every other host into the last
// one, "incast:4" fans exactly 4 senders, and alltoall/permutation take
// no count. An explicit count must fit the topology — unlike the Incast
// builder, the parser rejects an oversized fan instead of clamping, so a
// CLI typo is an error rather than a silently smaller experiment.
func ParseWorkload(name string, n int, seed uint64) (Workload, error) {
	kind, arg, hasCount := strings.Cut(name, ":")
	count := 0
	if hasCount {
		c, err := strconv.Atoi(arg)
		if err != nil {
			return Workload{}, fmt.Errorf("netsim: malformed count %q in workload %q", arg, name)
		}
		if c <= 0 {
			return Workload{}, fmt.Errorf("netsim: workload %q count must be positive, got %d", kind, c)
		}
		count = c
	}
	if n < 2 {
		return Workload{}, fmt.Errorf("netsim: workload %q needs at least 2 hosts, got %d", kind, n)
	}
	switch kind {
	case "incast":
		fan := n - 1
		if hasCount {
			if count > n-1 {
				return Workload{}, fmt.Errorf("netsim: incast fan %d exceeds the %d hosts that can send to the receiver", count, n-1)
			}
			fan = count
		}
		return Incast(n, fan), nil
	case "alltoall", "permutation":
		if hasCount {
			return Workload{}, fmt.Errorf("netsim: workload %q takes no count (only incast:<fan> does)", kind)
		}
		if kind == "alltoall" {
			return AllToAll(n), nil
		}
		return Permutation(n, seed), nil
	}
	return Workload{}, fmt.Errorf("netsim: unknown workload %q (want incast[:fan]|alltoall|permutation)", kind)
}
