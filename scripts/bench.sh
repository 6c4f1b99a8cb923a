#!/usr/bin/env bash
# bench.sh — run the hot-path benchmarks and snapshot the results as JSON
# so the performance trajectory is tracked PR over PR.
#
# Usage:
#   scripts/bench.sh [output.json]          # default: BENCH_pr14.json
#   BENCHTIME=1s scripts/bench.sh           # longer, steadier numbers
#   CPUS=1,2,4,8 scripts/bench.sh           # pool-arm scaling sweep
#   BENCH_FILTER='^BenchmarkMatchReader' scripts/bench.sh  # pinned subset
#   BENCH_PARALLEL=0 scripts/bench.sh       # skip the -cpu sweep pass
#   GOMAXPROCS=1 scripts/bench.sh           # unsuffixed main-pass arm names,
#                                           # as in the committed snapshots
#   BENCH_SERVER=1 scripts/bench.sh         # also load-test xpfilterd over
#                                           # HTTP -> BENCH_pr8_server.json
#   BENCH_SERVER_CLIENTS=64 BENCH_SERVER_REQUESTS=5000  # its knobs
#
# The main pass runs the sequential hot-path arms — including the
# BenchmarkFilterSetChurn mutation-ack family (Remove + Add + one
# document at 100/1k/10k subscriptions on each route), the
# chunked-vs-buffered BenchmarkMatchReader family, the
# BenchmarkMatchReaderNoMatch negative-early-exit family, and the
# BenchmarkFanoutRouting content-based-routing family (delivered
# bytes/s of fragment extraction, with the boolean baseline pinned at
# 0 allocs/event), with alloc tracking — and the second pass runs the
# sequential-vs-pool arms (BenchmarkSequentialVsPool) across the CPUS
# list so the snapshot records the cores-vs-throughput curve. BENCH_FILTER narrows the main
# pass to a pinned arm subset (the CI regression gate uses this to
# compare stable arms only; see scripts/benchcmp).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_pr14.json}"
benchtime="${BENCHTIME:-1x}"
cpus="${CPUS:-1,2,4}"
filter="${BENCH_FILTER:-^BenchmarkFilterSet$|^BenchmarkFilterSetChurn$|^BenchmarkFilterSetLimits$|Throughput|^BenchmarkMatchReader$|^BenchmarkMatchReaderNoMatch$|^BenchmarkTokenizer$|^BenchmarkFanoutRouting$}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$filter" -benchmem -benchtime "$benchtime" . | tee "$raw"
if [ "${BENCH_PARALLEL:-1}" != "0" ]; then
  go test -run '^$' -bench '^BenchmarkSequentialVsPool$' -benchtime "$benchtime" -cpu "$cpus" . | tee -a "$raw"
fi

{
  printf '{\n'
  printf '  "captured": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "go": "%s",\n' "$(go version | sed 's/"/\\"/g')"
  printf '  "benchtime": "%s",\n' "$benchtime"
  printf '  "cpus": "%s",\n' "$cpus"
  printf '  "benchmarks": [\n'
  awk '
    /^Benchmark/ {
      name = $1; iters = $2
      ns = ""; bop = ""; allocs = ""; extra = ""; frac = ""; mbs = ""
      for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns = $i
        if ($(i+1) == "B/op")      bop = $i
        if ($(i+1) == "allocs/op") allocs = $i
        if ($(i+1) == "ns/event")  extra = $i
        if ($(i+1) == "readFrac")  frac = $i
        if ($(i+1) == "MB/s")      mbs = $i
      }
      if (n++) printf ",\n"
      printf "    {\"name\": \"%s\", \"iterations\": %s", name, iters
      if (ns != "")     printf ", \"ns_per_op\": %s", ns
      if (extra != "")  printf ", \"ns_per_event\": %s", extra
      if (frac != "")   printf ", \"read_frac\": %s", frac
      if (mbs != "")    printf ", \"mb_per_s\": %s", mbs
      if (bop != "")    printf ", \"bytes_per_op\": %s", bop
      if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
      printf "}"
    }
    END { printf "\n" }
  ' "$raw"
  printf '  ]\n'
  printf '}\n'
} > "$out"

echo "wrote $out"

# Optional server arm: boot xpfilterd on an ephemeral port and measure
# end-to-end dissemination throughput (HTTP + JSON + engine) with the
# xpload harness. Kept off the default path — it measures the serving
# layer, not the library hot path the regression gate tracks.
if [ "${BENCH_SERVER:-0}" = "1" ]; then
  server_out="${BENCH_SERVER_OUT:-BENCH_pr8_server.json}"
  workdir="$(mktemp -d)"
  server_pid=""
  cleanup_server() {
    [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
  }
  trap cleanup_server EXIT

  go build -o "$workdir/xpfilterd" ./cmd/xpfilterd
  go build -o "$workdir/xpload" ./cmd/xpload
  "$workdir/xpfilterd" -addr 127.0.0.1:0 -addr-file "$workdir/addr" \
    >"$workdir/daemon.log" 2>&1 &
  server_pid=$!
  for _ in $(seq 1 100); do
    [ -s "$workdir/addr" ] && break
    sleep 0.1
  done
  [ -s "$workdir/addr" ] || { echo "xpfilterd never came up"; cat "$workdir/daemon.log"; exit 1; }

  "$workdir/xpload" -addr "$(cat "$workdir/addr")" \
    -clients "${BENCH_SERVER_CLIENTS:-64}" \
    -requests "${BENCH_SERVER_REQUESTS:-5000}" \
    -o "$server_out"
  kill -TERM "$server_pid" && wait "$server_pid"
  server_pid=""
  echo "wrote $server_out"
fi
