#!/usr/bin/env bash
# check.sh — trimgrad's tier-1 verification gate.
#
# Usage:
#   scripts/check.sh          full gate (race pass, fuzz smoke, coverage)
#   scripts/check.sh -short   fast mode: skips the race-detector pass and
#                             runs the test suite with -short
#   scripts/check.sh -chaos   fault-injection pass only: race-enabled chaos,
#                             fault, and duplicate-delivery regression tests
#                             (the faulty half of the scenario matrix among
#                             them), the audit's monotone-time check
#                             against a wake that never re-arms, plus the
#                             payload- and record-ownership suites
#                             (immutable after Send under trims and
#                             merges, admission on the packet's own CRCs,
#                             no copy per hop, SendRun equal to its Sends,
#                             pool misuse and foreign records, delivered
#                             trim views equal to eager trims and kept
#                             views to their sender's prefix, plain and
#                             sharded)
#   scripts/check.sh -bench   perf smoke only: the BenchmarkHot* suite,
#                             the BenchmarkFabric* fast-path suite (wheel,
#                             pooled and borrowed-payload hops, and the k=4
#                             fat-tree incast),
#                             the BenchmarkShardFabric partitioned-
#                             engine suite, the worker crew alone
#                             (BenchmarkTeamRun: one empty par.Team phase
#                             at 1, 2 and 4 members; BenchmarkForEachOverhead:
#                             one 64-index ForEach on 4) and the compute kernels
#                             (BenchmarkFWHT at 2^15 and 2^11,
#                             BenchmarkDenseLayer over a raw and a
#                             rectified input) and the round's compute
#                             half (BenchmarkTrainCompute: one model vs
#                             replicas) and the receive path's
#                             (BenchmarkBits: pack/unpack at widths 1, 8,
#                             31; BenchmarkDecoderIngest: full and
#                             head-trimmed packets, rht and sd, handle and
#                             reconstruct timed apart at 1 worker and all
#                             cores) and the codec kernels
#                             (BenchmarkFig5Encode, BenchmarkFig5Decode,
#                             BenchmarkE7MultiLevelEncode) and the encode
#                             path (BenchmarkEncodeParallel: codec_exchange's
#                             gradient under sign, sq, sd and rht;
#                             BenchmarkUint64, BenchmarkFloat64: the coin)
#                             run clean
#                             under -race with live obs registries, and the
#                             obs overhead guard still holds
#   scripts/check.sh -lint    static pass only: gofmt + go vet + go vet
#                             for GOARCH=386 (every package but
#                             ./benchmark) + trimlint + the no-Deprecated
#                             guard + the no-trimmed-flag guard (no
#                             FlagTrimmed, MarkTrimmed, TrimLen(,
#                             Trimmed() or ValidateUntrimmed in any Go
#                             file) + the
#                             one-fabric-switch guard (no
#                             builder called by name outside internal/netsim,
#                             benchmark/ and examples/; NewFatTree only in
#                             benchmark/ and internal/netsim/spec_test.go)
#                             + the one-bind guard (collective.New only in
#                             internal/collective and benchmark/;
#                             transport.New also in internal/scenario)
#                             + the CHANGES.md bound (an entry for PR 41
#                             or later is at most 1 500 bytes) + the
#                             no-FMA scan (the GOARCH=arm64 code of every
#                             package but ./benchmark holds no fused
#                             multiply-add) + the inlined
#                             coin (go build -gcflags=-m still reports
#                             xrand's Uint64, Float64 and Uniform as
#                             inlinable)
#   scripts/check.sh -loc [DIR...]
#                             print the size score ROADMAP and CHANGES.md
#                             quote: non-test and test Go lines outside
#                             benchmark/ and testdata/, and DESIGN.md's
#                             lines; then each DIR's non-test and test lines
#   scripts/check.sh -reach   list the internal/ functions no shipped path
#                             reaches, and count them: every cmd/*,
#                             examples/* and ./benchmark built with
#                             -cover, each run once over its inputs (every
#                             trimbench experiment at -quick, every
#                             benchmark workload traced and untraced) and
#                             again with the flags that gate a path
#                             (-csv, -metrics, profiles, the dumbbell and
#                             leaf–spine fabrics, all-to-all, -agg), then
#                             the functions with statements at 0.0 %
#                             and, from the same profile, each internal/
#                             package's share of statements executed
#                             (about a minute)
#
# Every step must pass; the script stops at the first failure. Any other
# argument prints this usage and exits 2.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  sed -n '/^# Usage:/,/^#$/s/^# \{0,1\}//p' scripts/check.sh >&2
  exit 2
}

mode=full
case "${1:-}" in
  "")     ;;
  -short) mode=short ;;
  -chaos) mode=chaos ;;
  -bench) mode=bench ;;
  -lint)  mode=lint ;;
  -loc)   mode=loc ;;
  -reach) mode=reach ;;
  *)      usage ;;
esac
[[ $# -gt 0 ]] && shift
[[ $mode == loc || $# -eq 0 ]] || usage

step() { echo "== $*"; }

# selects KIND PATTERN PKG...: fail unless PATTERN names at least one KIND
# (Test, Benchmark or Fuzz) in every PKG, so a deleted or renamed suite
# cannot turn the gate that ran it into a no-op.
selects() {
  local kind=$1 pattern=$2 pkg listed
  shift 2
  for pkg in "$@"; do
    listed=$(go test -list "$pattern" "$pkg")
    if ! grep -q "^$kind" <<<"$listed"; then
      echo "check.sh: pattern '$pattern' selects no $kind in $pkg" >&2
      exit 1
    fi
  done
}

if [[ $mode == loc ]]; then
  golines() { # DIR FIND-ARGS...
    local dir=$1
    shift
    find "$dir" -name '*.go' -not -path './benchmark/*' -not -path '*/testdata/*' "$@" -print0 | xargs -0r cat | wc -l
  }
  echo "non-test Go  $(golines . -not -name '*_test.go')"
  echo "test Go      $(golines . -name '*_test.go')"
  echo "DESIGN.md    $(wc -l < DESIGN.md)"
  for dir in "$@"; do
    dir=./${dir#./}
    dir=${dir%/}
    [[ -d $dir ]] || { echo "check.sh: -loc: no directory $dir" >&2; exit 1; }
    echo "${dir#./}  non-test $(golines "$dir" -not -name '*_test.go')  test $(golines "$dir" -name '*_test.go')"
  done
  exit 0
fi

if [[ $mode == reach ]]; then
  reach=$(mktemp -d /tmp/trimgrad-reach.XXXXXX)
  trap 'rm -rf "$reach"' EXIT
  bin=$reach/bin
  export GOCOVERDIR=$reach/cov
  mkdir -p "$bin" "$GOCOVERDIR"
  step "go build -cover -coverpkg=trimgrad/... (cmd/*, examples/*, benchmark)"
  for pkg in ./cmd/* ./examples/* ./benchmark; do
    go build -cover -coverpkg=trimgrad/... -o "$bin/$(basename "$pkg")" "$pkg"
  done
  step "run each binary"
  "$bin/trimlint" ./... > /dev/null
  for exp in $("$bin/trimbench" 2>&1 | awk 'NR > 1 {print $1}'); do
    "$bin/trimbench" -exp "$exp" -quick > /dev/null
  done
  # The paths a flag gates: CSV and JSONL export, profiles, the
  # dumbbell and leaf–spine builders, all-to-all traffic, aggregation.
  "$bin/trimbench" -exp wire-math -quick -csv > /dev/null
  "$bin/trimbench" -exp fig5 -quick -metrics "$reach/fig5.jsonl" > /dev/null
  "$bin/netsim" > /dev/null
  for args in "-topo dumbbell" "-topo leafspine" "-workload alltoall" "-agg" "-metrics $reach/netsim.jsonl"; do
    "$bin/netsim" $args > /dev/null
  done
  "$bin/trainsim" -epochs 1 > /dev/null
  "$bin/trainsim" -epochs 1 -cpuprofile "$reach/cpu.prof" -memprofile "$reach/mem.prof" > /dev/null
  "$bin/trimwire" -demo > /dev/null
  for ex in ./examples/*; do
    "$bin/$(basename "$ex")" > /dev/null
  done
  workloads=$(awk '/"workloads"/ {w = 1} /"end_to_end"/ {w = 0} w && /"name"/' BENCHMARK.json | sed 's/.*"name": *"\([^"]*\)".*/\1/')
  for w in $workloads; do
    for trace in 0 1; do
      "$bin/benchmark" -workload "$w" -seconds 0.3 -trace "$trace" > /dev/null
    done
  done
  step "internal/ functions at 0.0 %"
  go tool covdata textfmt -i="$GOCOVERDIR" -o "$reach/cover.out"
  # A function without statements (a no-op method) has no block in the
  # profile and reads 0.0 % too: list only those with a block, one that
  # starts between the function's line and the next function's.
  go tool cover -func "$reach/cover.out" > "$reach/funcs"
  awk 'FNR == NR {
      if (FNR > 1 && $2 > 0) {
        split($1, at, ":")
        split(at[2], pos, ".")
        blk[at[1], ++nb[at[1]]] = pos[1] + 0
      }
      next
    }
    $1 ~ /^trimgrad\/internal\// {
      split($1, at, ":")
      n++
      file[n] = at[1]
      line[n] = at[2] + 0
      row[n] = $0
      zero[n] = $NF == "0.0%"
    }
    END {
      for (i = 1; i <= n; i++) {
        if (!zero[i]) continue
        end = i < n && file[i + 1] == file[i] ? line[i + 1] : 1e9
        for (j = 1; j <= nb[file[i]]; j++)
          if (blk[file[i], j] >= line[i] && blk[file[i], j] < end) {
            print row[i]
            break
          }
      }
    }' "$reach/cover.out" "$reach/funcs" > "$reach/unreached"
  cat "$reach/unreached"
  echo "unreached internal/ functions: $(wc -l < "$reach/unreached")"
  # A reached function can still hold a branch only tests take: the share
  # of each package's statements the runs executed shows where to look.
  step "internal/ statements executed, per package"
  awk 'NR > 1 && $1 ~ /^trimgrad\/internal\// {
      stmts[$1] = $2
      if ($3 > 0) hit[$1] = 1
    }
    END {
      for (b in stmts) {
        pkg = b
        sub(/\/[^\/]*:.*/, "", pkg)
        total[pkg] += stmts[b]
        if (b in hit) ran[pkg] += stmts[b]
      }
      for (pkg in total)
        printf "%-30s %5.1f %%  %5d of %5d\n", pkg, 100 * ran[pkg] / total[pkg], ran[pkg], total[pkg]
    }' "$reach/cover.out" | sort
  exit 0
fi

if [[ $mode == bench ]]; then
  bench() { # PATTERN PKG
    selects Benchmark "$1" "$2"
    go test -race -run '^$' -bench "$1" -benchtime 1x "$2"
  }
  step "go test -race -bench Hot (hot-path suite, live registries)"
  bench 'Hot' .
  step "go test -race -bench Fabric (wheel + pooled-event fast path)"
  bench '^BenchmarkFabric' .
  step "go test -race -bench Shard, TeamRun, ForEachOverhead (partitioned engine, cross-shard mailboxes; the crew's empty phase and its ForEach)"
  bench 'Shard' .
  bench '^Benchmark(TeamRun|ForEachOverhead)$' ./internal/par
  step "go test -race -bench FWHT, DenseLayer, TrainCompute (compute kernels, serial and pooled, raw and rectified input; a round's passes on one model and on replicas)"
  bench '^BenchmarkFWHT' .
  bench '^BenchmarkDenseLayer' ./internal/ml
  bench '^BenchmarkTrainCompute' .
  step "go test -race -bench Bits, DecoderIngest (receive path: bit kernels, Handle admission and row replay)"
  bench '^BenchmarkBits$' ./internal/vecmath
  bench '^BenchmarkDecoderIngest$' ./internal/core
  step "go test -race -bench Fig5Encode, Fig5Decode, E7MultiLevelEncode (codec kernels: every scheme's heads, 1-bit and multi-level)"
  bench '^Benchmark(Fig5Encode|Fig5Decode|E7MultiLevelEncode)$' .
  step "go test -race -bench EncodeParallel, Uint64, Float64 (encode path: rows in place, one packet slab per message; the coin)"
  bench '^BenchmarkEncodeParallel$' ./internal/core
  bench '^Benchmark(Uint64|Float64)$' ./internal/xrand
  step "obs overhead guard (encode hot path, Nop vs live registry)"
  selects Test 'TestObsOverheadGuard' .
  go test -run 'TestObsOverheadGuard' -count=1 .
  echo "OK (bench smoke)"
  exit 0
fi

if [[ $mode == chaos ]]; then
  step "go test -race (chaos/fault/duplicate regressions, monotone-time audit mutant)"
  pattern='Chaos|Fault|Flap|Duplicate|PauseAndFail|MonotoneTime'
  pkgs=(./internal/netsim ./internal/transport ./internal/collective ./internal/exp ./internal/scenario)
  selects Test "$pattern" "${pkgs[@]}"
  go test -race -run "$pattern" "${pkgs[@]}"
  step "go test -race (payload and record ownership: immutable after Send, admission on the packet's own CRCs, no per-hop copy, records only from their Sim's pool, trims decided from the record's stamp and read as views, kept views equal to the sender's prefix)"
  pattern='Borrowed|NeverWritesSender|KeptTrimViews|AdmissionMatches|SendRun|PooledRecord|ForeignRecord|EagerTrim|StampedTrimLen|MergedRecord'
  pkgs=(./internal/netsim ./internal/transport)
  selects Test "$pattern" "${pkgs[@]}"
  go test -race -run "$pattern" -count=1 "${pkgs[@]}"
  echo "OK (chaos pass)"
  exit 0
fi

step "gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
  echo "gofmt needed:" >&2
  echo "$unformatted" >&2
  exit 1
fi

step "go vet ./..."
go vet ./...

step "GOARCH=386 go vet (every package but ./benchmark)"
# A 32-bit int must not break the build. ./benchmark is left out:
# benchmark/run.go sets warmupBase = 1 << 32, which overflows int on 386,
# and benchmark/ changes only in a benchmark-only change (ROADMAP.md).
GOARCH=386 go vet $(go list ./... | grep -vx 'trimgrad/benchmark')

step "trimlint ./..."
go run ./cmd/trimlint ./...

step "no Deprecated: twins (migration wrappers must not return)"
deprecated=$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=testdata 'Deprecated:' . || true)
if [[ -n "$deprecated" ]]; then
  echo "Deprecated: markers in non-test code — migrate the callers and delete the twin:" >&2
  echo "$deprecated" >&2
  exit 1
fi

step "no trimmed flag (a trim is a prefix of the sender's bytes and writes nothing)"
# Bit 0 of the flags byte is reserved since the marked trim was retired;
# readers tell a cut by its length (wire.Header.IsCut), and one
# wire.Validate admits a packet cut or whole.
flagged=$(grep -rnE --include='*.go' 'FlagTrimmed|MarkTrimmed|TrimLen\(|Trimmed\(\)|ValidateUntrimmed' . || true)
if [[ -n "$flagged" ]]; then
  echo "the retired trimmed flag is back — trim with wire.Trim, tell a cut by wire.Header.IsCut, admit with wire.Validate:" >&2
  echo "$flagged" >&2
  exit 1
fi

step "one name->topology switch (fabrics are built by netsim.FabricSpec.Build)"
# A harness describes its fabric as a FabricSpec; only internal/netsim (the
# builders and Build), benchmark/ and the examples call a builder by name.
builders=$(grep -rnE --include='*.go' --exclude='*_test.go' 'netsim\.New(Star|Dumbbell|Ring|FatTree)\(' . \
  | grep -vE '^\./(internal/netsim|benchmark|examples)/' || true)
if [[ -n "$builders" ]]; then
  echo "topology builders called outside internal/netsim, benchmark/ and examples/ — describe the fabric as a netsim.FabricSpec and call Build:" >&2
  echo "$builders" >&2
  exit 1
fi
# NewFatTree is the benchmark harness's adapter to FabricSpec.Build, kept
# until a benchmark-only change deletes it: no new caller, test files
# included, beyond benchmark/ and the test that pins it against Build.
fattree=$(grep -rnE --include='*.go' 'NewFatTree\(' . \
  | grep -vE '^\./(benchmark/|internal/netsim/spec_test\.go:)|func NewFatTree\(' || true)
if [[ -n "$fattree" ]]; then
  echo "NewFatTree called outside benchmark/ and internal/netsim/spec_test.go — use netsim.FabricSpec{Kind: \"fattree\", …}.Build:" >&2
  echo "$fattree" >&2
  exit 1
fi

step "one way to bind workers (collective.Bind) and stacks"
# A harness turns hosts into collective workers with collective.Bind; only
# the scenario runner and benchmark/ attach bare transport stacks.
binds=$( (grep -rnE --include='*.go' --exclude='*_test.go' 'collective\.New\(' . \
    | grep -vE '^\./(internal/collective|benchmark)/' || true
  grep -rnE --include='*.go' --exclude='*_test.go' 'transport\.New\(' . \
    | grep -vE '^\./(internal/collective|internal/scenario|benchmark)/' || true) )
if [[ -n "$binds" ]]; then
  echo "collective.New or transport.New called outside the layers that own them — use collective.Bind:" >&2
  echo "$binds" >&2
  exit 1
fi

step "CHANGES.md entries from PR 41 on fit 1 500 bytes"
# An entry is a "- PR N" bullet and the indented lines under it: one
# paragraph plus its pair table. Earlier entries predate the bound.
long=$(LC_ALL=C awk '
  function flush() { if (pr >= 41 && size > 1500) printf "PR %d: %d bytes\n", pr, size }
  /^- / {
    flush()
    pr = 0; size = 0
    if (match($0, /^- (\*\*)?PR [0-9]+/)) { n = substr($0, RSTART, RLENGTH); gsub(/[^0-9]/, "", n); pr = n + 0 }
  }
  { size += length($0) + 1 }
  END { flush() }' CHANGES.md)
if [[ -n "$long" ]]; then
  echo "CHANGES.md entries over 1 500 bytes — keep one paragraph plus its pair table:" >&2
  echo "$long" >&2
  exit 1
fi

step "no fused multiply-add in any package but ./benchmark (GOARCH=arm64 -gcflags=-S)"
# Go may fuse a*b + c into one FMA instruction on arm64 (never at amd64's
# default GOAMD64=v1), which rounds once instead of twice: a row would
# encode and decode to other bits there, and a printed figure would read
# otherwise. Each product that feeds an add is rounded explicitly,
# float64(a*b) + c, so the arm64 code holds none. ./benchmark is left out:
# benchmark/stats.go's quartile interpolation fuses, and benchmark/
# changes only in a benchmark-only change (ROADMAP.md).
fma_asm=$(GOARCH=arm64 go build -gcflags=-S $(go list ./... | grep -vx 'trimgrad/benchmark') 2>&1)
fused=$(grep -E '\s(FMADD|FMSUB|FNMADD|FNMSUB)[SD]\s' <<<"$fma_asm" || true)
if [[ -n "$fused" ]]; then
  echo "fused multiply-adds in the GOARCH=arm64 code — round the product first, float64(a*b) + c:" >&2
  echo "$fused" >&2
  exit 1
fi

step "xrand's coin inlines (go build -gcflags=-m)"
# Every SQ, SD and linear coordinate draws a coin; past the inliner's
# budget each draw is a call.
inl=$(go build -gcflags=-m ./internal/xrand 2>&1)
for fn in Uint64 Float64 Uniform; do
  if ! grep -qF "can inline (*Rand).$fn" <<<"$inl"; then
    echo "xrand's (*Rand).$fn no longer inlines — keep it within the inliner's budget (go build -gcflags=-m=2 ./internal/xrand shows its cost):" >&2
    exit 1
  fi
done

if [[ $mode == lint ]]; then
  echo "OK (lint mode: gofmt + vet + 386 vet + trimlint + no-Deprecated + no-trimmed-flag + one-fabric-switch + NewFatTree only in benchmark/ + one-bind + CHANGES.md bound + no arm64 FMA outside benchmark/ + xrand coin inlines)"
  exit 0
fi

step "go build ./..."
go build ./...

if [[ $mode == short ]]; then
  step "go test -short ./..."
  go test -short ./...
  echo "OK (short mode: race-detector pass skipped)"
  exit 0
fi

step "go test ./..."
go test ./...

step "go test -race (concurrency-heavy packages, and the ones whose code runs on crew goroutines)"
go test -race ./internal/core ./internal/transport ./internal/collective ./internal/ddp \
  ./internal/ml ./internal/par ./internal/fwht ./internal/obs

step "shard determinism (differential + plain-Sim identity + sharded matrices + the par.Team barrier and ForEach, -race, GOMAXPROCS 1 and 4)"
# The bit-identity contract — plain Sim ≡ 1 shard ≡ S shards — must hold
# however the goroutines are actually scheduled: truly parallel (4) and
# fully serialized (1) both run under the race detector, and so does the
# crew under them, spinning and parking, pinned (Run) and drawing indices
# (ForEach, concurrent and nested callers included). The transport's run
# covers the per-message control headers its shards share read-only.
pkgs=(./internal/netsim ./internal/collective ./internal/par ./internal/transport)
selects Test 'Shard|Team|ForEach' "${pkgs[@]}"
for procs in 1 4; do
  GOMAXPROCS=$procs go test -race -run 'Shard|Team|ForEach' -count=1 "${pkgs[@]}"
done

step "metrics export smoke (trimbench -metrics -> metricsval)"
metrics_tmp=$(mktemp /tmp/trimgrad-metrics.XXXXXX.jsonl)
trap 'rm -f "$metrics_tmp"' EXIT
go run ./cmd/trimbench -exp fig5 -quick -metrics "$metrics_tmp" > /dev/null
go run ./tools/metricsval "$metrics_tmp"

# The tree's one wall-clock assertion: it runs only when -run names the test,
# so the plain `go test ./...` above asserts deterministic facts only.
step "obs overhead guard (encode hot path, Nop vs live registry)"
selects Test 'TestObsOverheadGuard' .
go test -run 'TestObsOverheadGuard' -count=1 .

step "fuzz smoke (wire parsers + Trim + aggregate merge + validate/parse parity, 2s each)"
for target in FuzzParseDataPacket FuzzParseMetaPacket FuzzTrim FuzzTrimPreservesHeads FuzzAggregateMerge FuzzParseAggPacket FuzzValidateMatchesParse; do
  selects Fuzz "^${target}\$" ./internal/wire
  go test -run '^$' -fuzz "^${target}\$" -fuzztime 2s ./internal/wire
done

step "fuzz smoke (decoders behind the checksums: re-sealed forgeries into Decoder and SumDecoder, 2s)"
selects Fuzz '^FuzzDecoderHandle$' ./internal/core
go test -run '^$' -fuzz '^FuzzDecoderHandle$' -fuzztime 2s ./internal/core

step "fuzz smoke (event order: wheel vs key-deriving reference heap, shard counts vs 1 shard, 2s each)"
for target in FuzzTimerWheel FuzzShardScheduler; do
  selects Fuzz "^${target}\$" ./internal/netsim
  go test -run '^$' -fuzz "^${target}\$" -fuzztime 2s ./internal/netsim
done

step "fuzz smoke (scenarios: any fabric x partition x workload x transport x faults settles, conserves, repeats, 3s)"
selects Fuzz '^FuzzScenario$' ./internal/scenario
go test -run '^$' -fuzz '^FuzzScenario$' -fuzztime 3s ./internal/scenario

step "coverage (fault-injection surface)"
go test -cover ./internal/netsim ./internal/wire ./internal/transport \
  ./internal/collective ./internal/core | awk '{print "   " $2 "\t" $5}'

echo "OK"
