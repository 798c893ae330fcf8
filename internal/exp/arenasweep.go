package exp

import (
	"fmt"
	"io"

	"trimgrad/internal/netsim"
)

// E15 — the stamped-arena fast path under chaos and sharding. The same
// incast workload runs with payload buffers the fabric borrows read-only
// from the sender ("borrowed": nobody recycles them, the GC does) and
// recycled through generation-stamped arenas ("arena"), across fault
// mixes (clean, reorder+duplicate on every sender uplink) and shard
// counts. The table reports wall clock per cell and, crucially, whether
// the two paths — and every shard count — produced bit-identical
// simulations. Stale drops must read zero everywhere: on a correct run
// the stamps are pure defense in depth.

// arenaSweepFaults is the aliasing mix every sender uplink carries in the
// "chaos" rows — exactly the combination the old runtime guards rejected
// alongside WithArena.
func arenaSweepFaults(seed uint64) netsim.FaultConfig {
	return netsim.FaultConfig{
		Seed:          seed,
		ReorderRate:   0.2,
		ReorderDelay:  20 * netsim.Microsecond,
		DuplicateRate: 0.2,
	}
}

// runArenaSweep is the E15 sweep: fault mix × shard count × payload path,
// with the 1-shard borrowed path of each fault mix as the identity
// reference.
func runArenaSweep(w io.Writer, o Options) error {
	mixes := []bool{false, true}
	shardCounts := []int{1, 2, 4}
	dim := 1 << 14
	if o.Quick {
		mixes = []bool{true}
		shardCounts = []int{1, 2}
		dim = 1 << 12
	}
	t := NewTable("Stamped-arena fast path: borrowed vs arena × fault mix × shards (E15)",
		"faults", "shards", "path", "completed", "stale_drops", "wall_ms", "identical")
	for _, chaos := range mixes {
		mixName := "clean"
		if chaos {
			mixName = "reorder+dup"
		}
		refDigest := ""
		for _, shards := range shardCounts {
			for _, useArena := range []bool{false, true} {
				path := "borrowed"
				if useArena {
					path = "arena"
				}
				cell := shardCell{kind: "fattree", workload: "incast", shards: shards, dim: dim,
					chaos: chaos, arena: useArena}
				res, err := cell.run(o)
				if err != nil {
					return fmt.Errorf("exp: arenasweep %s/%d/%s: %w", mixName, shards, path, err)
				}
				if res.stale != 0 {
					return fmt.Errorf("exp: arenasweep %s/%d/%s: %d stale drops on a correct run, want 0",
						mixName, shards, path, res.stale)
				}
				identical := "ref"
				if refDigest == "" {
					refDigest = res.digest
				} else {
					identical = fmt.Sprintf("%v", res.digest == refDigest)
					if res.digest != refDigest {
						return fmt.Errorf("exp: arenasweep %s: %d-shard %s output diverges from the 1-shard borrowed reference",
							mixName, shards, path)
					}
				}
				t.Add(mixName, shards, path,
					fmt.Sprintf("%d/%d", res.completed, res.flows),
					res.stale, res.wallMs, identical)
			}
		}
	}
	return emit(w, o, t)
}

func init() {
	register(Runner{"arenasweep", "stamped-arena fast path: borrowed-vs-arena bit-identity under chaos and sharding (E15)", runArenaSweep})
}
