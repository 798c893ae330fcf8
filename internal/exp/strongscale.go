package exp

import (
	"bytes"
	"fmt"
	"io"
	"runtime"

	"trimgrad/internal/obs"
	"trimgrad/internal/scenario"
)

// E14 — strong scaling of the sharded simulator. The same gradient
// workload under background load runs at 1, 2, and 4 shards on each
// multi-rack fabric; the table reports wall-clock speedup over the
// 1-shard run and, crucially, whether every run produced bit-identical
// results (merged obs JSONL, completion count, straggler FCT). Speedup
// is a property of the host machine and of how much work a lookahead
// window holds — on the 2-core reference box these four-rack fabrics read
// 0.63–1.22 — but the identical column must read true everywhere, always:
// parallelism is free to buy nothing, never to change physics.

// runShardCell runs one E14 cell — sweepScenario, trimmable, partitioned
// into shards, per-flow FCT spans in the telemetry — and returns the run,
// a digest of every observable the bit-identity contract covers (the
// canonical merged telemetry — port counters, transport and codec metrics,
// flow spans — plus completion outcomes), and the wall milliseconds of the
// event loop alone: set-up and encoding are the same work at every shard
// count.
func runShardCell(kind, workload string, shards, dim int, o Options) (res *scenario.Result, digest string, wallMs float64, err error) {
	q, _ := queueFor(true, 48<<10, 1<<20)
	s := sweepScenario(kind, workload, q, dim, o)
	s.Shards = shards
	rig, err := scenario.Prepare(s, obs.New())
	if err != nil {
		return nil, "", 0, err
	}
	elapsed := stopwatch()
	res = rig.Run()
	wallMs = float64(elapsed().Microseconds()) / 1000
	if err := res.Topo.Net.Audit(); err != nil {
		return nil, "", 0, err
	}

	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, res.Snapshot()); err != nil {
		return nil, "", 0, err
	}
	fmt.Fprintf(&buf, "completed=%d maxfct=%d vnow=%d processed=%d",
		res.FCT.Count(), res.FCT.Max(), res.Now, res.Processed)
	return res, buf.String(), wallMs, nil
}

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
				res, digest, wallMs, err := runShardCell(kind, wl, shards, dim, o)
				if err != nil {
					return fmt.Errorf("exp: strongscale %s/%s/%d: %w", kind, wl, shards, err)
				}
				identical := "ref"
				speedup := 1.0
				if shards == 1 {
					refDigest, refWall = digest, wallMs
				} else {
					identical = fmt.Sprintf("%v", digest == refDigest)
					if digest != refDigest {
						return fmt.Errorf("exp: strongscale %s/%s: %d-shard output diverges from 1-shard", kind, wl, shards)
					}
					if wallMs > 0 {
						speedup = refWall / wallMs
					}
				}
				t.Add(kind, wl, shards,
					fmt.Sprintf("%d/%d", res.FCT.Count(), len(res.Flows)),
					wallMs, fmt.Sprintf("%.2f", speedup), identical)
			}
		}
	}
	return emit(w, o, t)
}

func init() {
	register(Runner{"strongscale", "sharded-engine strong scaling: speedup and bit-identity vs shard count (E14)", runStrongScale})
}
