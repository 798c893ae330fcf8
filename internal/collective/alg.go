package collective

import (
	"fmt"

	"trimgrad/internal/netsim"
)

// Algorithm selects the all-reduce schedule. All algorithms produce the
// same average (bit-identical under exact decodes — pinned by the
// cross-algorithm equivalence tests); they differ in traffic pattern, and
// therefore in where congestion forms and where trimming or in-network
// aggregation can act.
type Algorithm int

const (
	// AlgDirect is the all-to-all exchange (directPlan).
	AlgDirect Algorithm = iota
	// AlgRing is the bandwidth-optimal ring (ringPlan).
	AlgRing
	// AlgRecursiveDoubling is the log-step halving/doubling exchange
	// (rdPlan).
	AlgRecursiveDoubling
	// AlgHierarchical reduces within groups, exchanges between group
	// leaders, and broadcasts back (hierPlan).
	AlgHierarchical
	// AlgParamServer funnels every gradient to rank 0, which sums and
	// broadcasts the average (psPlan). Its shared-message incast is the
	// pattern in-network aggregation collapses.
	AlgParamServer
)

// Algorithms lists every all-reduce algorithm (for matrix tests and CLIs).
func Algorithms() []Algorithm {
	return []Algorithm{AlgDirect, AlgRing, AlgRecursiveDoubling, AlgHierarchical, AlgParamServer}
}

// String names the algorithm (the inverse of ParseAlgorithm).
func (a Algorithm) String() string {
	switch a {
	case AlgDirect:
		return "direct"
	case AlgRing:
		return "ring"
	case AlgRecursiveDoubling:
		return "rd"
	case AlgHierarchical:
		return "hier"
	case AlgParamServer:
		return "ps"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm resolves a CLI flag value to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "direct":
		return AlgDirect, nil
	case "ring":
		return AlgRing, nil
	case "rd", "recursive-doubling":
		return AlgRecursiveDoubling, nil
	case "hier", "hierarchical":
		return AlgHierarchical, nil
	case "ps", "param-server":
		return AlgParamServer, nil
	}
	return 0, fmt.Errorf("collective: unknown algorithm %q (want direct|ring|rd|hier|ps)", s)
}

// MsgSpan returns how many message IDs one all-reduce over n workers may
// consume, so callers can advance their message base between rounds
// without collisions.
func MsgSpan(a Algorithm, n int) uint32 {
	un := uint32(n)
	var span uint32
	switch a {
	case AlgRing:
		if n >= 2 {
			span = (2*un - 2) * un
		}
	case AlgRecursiveDoubling:
		span = uint32(rdSteps(n)) * un
	case AlgHierarchical:
		span = 3 * un
	case AlgParamServer:
		span = 2
	default:
		span = un
	}
	if span == 0 {
		span = 1
	}
	return span
}

// AllReduce runs the selected algorithm: every worker contributes its
// gradient and onDone fires once per rank with the average, unless onError
// reports that rank's first transport failure, deadline expiry or decode
// error instead. Message IDs baseMsg..baseMsg+MsgSpan(a, len(workers))−1
// may be consumed.
func AllReduce(a Algorithm, epoch uint64, baseMsg uint32, workers []*Worker,
	grads [][]float32, onDone func(rank int, avg []float32, at netsim.Time),
	onError func(rank int, err error)) error {
	dim, err := checkGrads(workers, grads)
	if err != nil {
		return err
	}
	plans, err := allReducePlans(a, len(workers), dim, baseMsg)
	if err != nil {
		return err
	}
	return run(epoch, workers, grads, plans, func(rank int, acc []float32, _ [][]float32, at netsim.Time) {
		if onDone != nil {
			onDone(rank, acc, at)
		}
	}, onError)
}

// allReducePlans builds every rank's plan for one all-reduce of a
// dim-length gradient over n ranks.
func allReducePlans(a Algorithm, n, dim int, baseMsg uint32) ([]plan, error) {
	var build func(n, dim int, base uint32, rank int) plan
	switch a {
	case AlgDirect:
		build = directPlan
	case AlgRing:
		if n > 1 && dim < n {
			return nil, fmt.Errorf("collective: gradient length %d < %d workers", dim, n)
		}
		build = ringPlan
	case AlgRecursiveDoubling:
		build = rdPlan
	case AlgHierarchical:
		build = hierPlan
	case AlgParamServer:
		build = psPlan
	default:
		return nil, fmt.Errorf("collective: unknown algorithm %v", a)
	}
	plans := make([]plan, n)
	for i := range plans {
		plans[i] = build(n, dim, baseMsg, i)
	}
	return plans, nil
}

// checkGrads validates the shared worker/gradient preconditions and
// returns the dimension.
func checkGrads(workers []*Worker, grads [][]float32) (int, error) {
	n := len(workers)
	if n == 0 || len(grads) != n {
		return 0, fmt.Errorf("collective: %d workers, %d gradients", n, len(grads))
	}
	dim := len(grads[0])
	for _, g := range grads {
		if len(g) != dim {
			return 0, fmt.Errorf("collective: gradient length mismatch")
		}
	}
	return dim, nil
}
