package exp

import (
	"fmt"
	"io"
	"runtime"
)

// E14 — strong scaling of the sharded simulator. The same gradient
// workload under background load runs at 1, 2, and 4 shards on each
// multi-rack fabric; the table reports wall-clock speedup over the
// 1-shard run and, crucially, whether every run produced bit-identical
// results (merged obs JSONL, completion count, straggler FCT). Speedup
// is a property of the host machine and of how much work a lookahead
// window holds — on the 2-core reference box these four-rack fabrics read
// 0.55–0.75 — but the identical column must read true everywhere, always:
// parallelism is free to buy nothing, never to change physics.

// runStrongScale is the E14 sweep: shards × fabric × workload.
func runStrongScale(w io.Writer, o Options) error {
	fabrics := []string{"fattree", "leafspine"}
	workloads := []string{"incast", "alltoall"}
	dim := 1 << 14
	if o.Quick {
		fabrics = []string{"fattree"}
		workloads = []string{"incast"}
		dim = 1 << 12
	}
	// Both fabrics have 4 racks, so 4 shards is the partition ceiling.
	shardCounts := []int{1, 2, 4}

	t := NewTable(fmt.Sprintf("Strong scaling: sharded engine, %d CPUs (E14)", runtime.GOMAXPROCS(0)),
		"topology", "workload", "shards", "completed", "wall_ms", "speedup", "identical")
	for _, kind := range fabrics {
		for _, wl := range workloads {
			refDigest, refWall := "", 0.0
			for _, shards := range shardCounts {
				cell := shardCell{kind: kind, workload: wl, shards: shards, dim: dim}
				res, err := cell.run(o)
				if err != nil {
					return fmt.Errorf("exp: strongscale %s/%s/%d: %w", kind, wl, shards, err)
				}
				identical := "ref"
				speedup := 1.0
				if shards == 1 {
					refDigest, refWall = res.digest, res.wallMs
				} else {
					identical = fmt.Sprintf("%v", res.digest == refDigest)
					if res.digest != refDigest {
						return fmt.Errorf("exp: strongscale %s/%s: %d-shard output diverges from 1-shard", kind, wl, shards)
					}
					if res.wallMs > 0 {
						speedup = refWall / res.wallMs
					}
				}
				t.Add(kind, wl, shards,
					fmt.Sprintf("%d/%d", res.completed, res.flows),
					res.wallMs, fmt.Sprintf("%.2f", speedup), identical)
			}
		}
	}
	return emit(w, o, t)
}

func init() {
	register(Runner{"strongscale", "sharded-engine strong scaling: speedup and bit-identity vs shard count (E14)", runStrongScale})
}
