#!/usr/bin/env bash
# bench.sh — trimgrad's benchmark-trajectory harness.
#
# Runs the hot-path benchmark suite (the BenchmarkHot* family in
# bench_test.go: encode+decode round, matmul kernels, ml epoch — each
# with serial and parallel variants) plus the per-figure micro
# benchmarks, the fabric fast-path suite (including the k=4 fat-tree
# incast), and the collective-zoo all-reduce suite, and converts the
# output into BENCH_<date>.json via
# tools/benchjson. Each checked-in BENCH file is one point on the perf
# trajectory; the "speedups" section pairs every */serial with its
# */parallel sibling on the hardware the script ran on.
#
# Usage:
#   scripts/bench.sh                 run suite, write BENCH_<today>.json
#   BENCH_DATE=2026-08-06 scripts/bench.sh   pin the date stamp
#   BENCH_PATTERN='Hot' scripts/bench.sh     restrict which benchmarks run
#   BENCH_TIME=20x scripts/bench.sh          more iterations (noisy hosts)
set -euo pipefail
cd "$(dirname "$0")/.."

date=${BENCH_DATE:-$(date +%Y-%m-%d)}
pattern=${BENCH_PATTERN:-'Hot|Fig5|FWHT|E5Wire|Fabric|Collective|Shard'}
benchtime=${BENCH_TIME:-3x}
out="BENCH_${date}.json"
# Same-day rerun: auto-suffix b, c, … instead of clobbering (or requiring
# a manual rename). Suffixes sort after the bare date ('.' < 'b'), so the
# plain `ls | sort` below — and benchjson -diff's notion of "previous" —
# always picks the latest run of a day.
if [[ -e "$out" ]]; then
  for s in b c d e f g h i j k l m n o p q r s t u v w x y z; do
    candidate="BENCH_${date}${s}.json"
    [[ -e "$candidate" ]] && continue
    out="$candidate"
    break
  done
  if [[ -e "$out" ]]; then
    echo "bench.sh: every same-day suffix for $date is taken; pass BENCH_DATE to pick another stamp" >&2
    exit 1
  fi
  echo "note: BENCH_${date}.json exists; writing $out"
fi
raw=$(mktemp /tmp/trimgrad-bench.XXXXXX.txt)
trap 'rm -f "$raw"' EXIT

echo "== go test -bench '$pattern' (benchmem, $benchtime)"
go test -run '^$' -bench "$pattern" -benchmem -count=1 -benchtime "$benchtime" . | tee "$raw"

echo "== benchjson -> $out"
go run ./tools/benchjson -date "$date" -o "$out" < "$raw"
echo "wrote $out"

# Trajectory check: diff against the most recent previous BENCH file.
# Informational only — single-run numbers are noisy, so a regression here
# warns but never fails the script; re-run or investigate before trusting.
prev=$(ls BENCH_*.json 2>/dev/null | grep -vF "$out" | sort | tail -n 1 || true)
if [[ -n "$prev" ]]; then
  echo "== benchjson -diff $prev $out (informational)"
  go run ./tools/benchjson -diff "$prev" "$out" || true
fi
