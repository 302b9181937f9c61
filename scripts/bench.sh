#!/bin/sh
# bench.sh — benchmark-regression harness.
#
# Runs the tier-1 figure benchmarks (BenchmarkFigure*) plus the offline
# pipeline, trace-analyzer, live-doctor, carbon-attribution, serving
# (sharded throughput + hot submit), flight-recorder and span-overhead
# benchmarks, and the serial kernel's idle-timer churn rung from
# internal/simkernel, with -benchmem and records the result as
# BENCH_<date>.json in the repo root: a small JSON envelope with machine
# metadata and the raw `go test -bench` text embedded verbatim, so
#
#   benchstat <(jq -r .raw BENCH_old.json) <(jq -r .raw BENCH_new.json)
#
# (or any benchfmt consumer) can diff two recordings directly.
#
# Usage: scripts/bench.sh [output.json]
#        scripts/bench.sh -check [baseline.json]
#   BENCH_PATTERN  regex of benchmarks to run
#                  (default 'Figure|OfflineMWISPipeline|AnalyzeReplay|DoctorLive|CarbonAttribution|SweepCached|KernelThroughput|EngineIdleTimerChurn|Fleet100k|ServeThroughput|ServeSubmit|FlightRecorder|SpanOverhead')
#   BENCH_TIME     per-benchmark time (default 1s)
#   BENCH_COUNT    repetitions for benchstat confidence (default 1)
#   BENCH_TOL      -check wall-time tolerance as a fraction (default 0.25)
#   BENCH_ALLOC_TOL  -check allocs/op tolerance as a fraction (default 0.001)
#   BENCH_EVENTS_FLOOR  -check absolute events/sec floor for benchmarks
#                  reporting that metric (default 2000000)
#   BENCH_DECISIONS_FLOOR  -check absolute decisions/sec floor for the
#                  serving throughput benchmark, held at every shard count
#                  (default 1000000)
#   BENCH_EXACT_ALLOCS  -check regexp of benchmarks whose allocs/op must
#                  equal the baseline exactly — the instrumentation-off
#                  allocation-identity gate (default
#                  'FlightRecorder/off|SpanOverhead/off|ServeSubmit/off')
#   BENCH_ZERO_ALLOCS  -check regexp of benchmarks that must report exactly
#                  0 allocs/op, baseline-independent — the zero-alloc
#                  submit-path gate (default 'ServeSubmit/off')
#   BENCH_OVERHEAD_TOL  -check allowed wall-time overhead of the
#                  flight-recorder-on leg over its traced baseline
#                  (FlightRecorder/on vs /base). The design budget is <5%
#                  per event; the default 0.5 pads for single-run noise on
#                  shared machines, so the gate trips on a recorder costing
#                  multiples rather than on scheduler jitter.
#
# -check runs the same benchmarks but, instead of recording a snapshot,
# compares them against the newest BENCH_*.json (or the given baseline)
# with scripts/benchcheck: wall time must stay within BENCH_TOL and
# allocs/op within BENCH_ALLOC_TOL (tight enough that micro-benchmarks
# must match exactly), every benchmark reporting an events/sec metric
# (the kernel, fleet, replay, doctor and carbon benchmarks) must clear the
# BENCH_EVENTS_FLOOR absolute throughput floor, the serving benchmark
# (decisions/sec) must clear BENCH_DECISIONS_FLOOR at every shard count,
# the recorder-off / spans-off / submit hot paths must keep allocs/op
# byte-for-byte identical to the baseline (BENCH_EXACT_ALLOCS), the
# serving submit path must allocate nothing at all (BENCH_ZERO_ALLOCS),
# and the recorder-on leg must stay within BENCH_OVERHEAD_TOL of its
# traced baseline. Non-zero exit on regression — the `make ci` gate.

set -eu

cd "$(dirname "$0")/.."

pattern="${BENCH_PATTERN:-Figure|OfflineMWISPipeline|AnalyzeReplay|DoctorLive|CarbonAttribution|SweepCached|KernelThroughput|EngineIdleTimerChurn|Fleet100k|ServeThroughput|ServeSubmit|FlightRecorder|SpanOverhead}"
benchtime="${BENCH_TIME:-1s}"
count="${BENCH_COUNT:-1}"

check=0
if [ "${1:-}" = "-check" ]; then
	check=1
	shift
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# -cpu 1: the committed baselines are single-core, and go test names a
# GOMAXPROCS-1 result without the "-N" suffix, so the names match the
# baselines' on a multi-core host too.
echo "running benchmarks matching '$pattern' (benchtime=$benchtime count=$count cpu=1)..." >&2
go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -count "$count" -cpu 1 . ./internal/simkernel | tee "$tmp" >&2

if [ "$check" = 1 ]; then
	baseline="${1:-$(ls BENCH_*.json 2>/dev/null | sort | tail -1)}"
	if [ -z "$baseline" ]; then
		echo "bench.sh: no BENCH_*.json baseline to check against" >&2
		exit 2
	fi
	echo "checking against $baseline (tol ${BENCH_TOL:-0.25}, alloctol ${BENCH_ALLOC_TOL:-0.001}, eventsfloor ${BENCH_EVENTS_FLOOR:-2000000}, decisionsfloor ${BENCH_DECISIONS_FLOOR:-1000000}, exactallocs ${BENCH_EXACT_ALLOCS:-FlightRecorder/off|SpanOverhead/off|ServeSubmit/off}, zeroallocs ${BENCH_ZERO_ALLOCS:-ServeSubmit/off}, overheadtol ${BENCH_OVERHEAD_TOL:-0.5})..." >&2
	exec go run ./scripts/benchcheck -baseline "$baseline" -new "$tmp" \
		-tol "${BENCH_TOL:-0.25}" -alloctol "${BENCH_ALLOC_TOL:-0.001}" \
		-eventsfloor "${BENCH_EVENTS_FLOOR:-2000000}" \
		-decisionsfloor "${BENCH_DECISIONS_FLOOR:-1000000}" \
		-exactallocs "${BENCH_EXACT_ALLOCS:-FlightRecorder/off|SpanOverhead/off|ServeSubmit/off}" \
		-zeroallocs "${BENCH_ZERO_ALLOCS:-ServeSubmit/off}" \
		-overheadtol "${BENCH_OVERHEAD_TOL:-0.5}"
fi

out="${1:-BENCH_$(date +%Y%m%d).json}"

# JSON-escape the raw benchfmt text (backslashes, quotes, tabs, newlines).
raw="$(sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' -e 's/\t/\\t/g' "$tmp" | awk '{printf "%s\\n", $0}')"

{
	printf '{\n'
	printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "go": "%s",\n' "$(go version | sed -e 's/"/\\"/g')"
	printf '  "commit": "%s",\n' "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
	printf '  "cpus": %s,\n' "$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
	printf '  "gomaxprocs": 1,\n'
	printf '  "pattern": "%s",\n' "$pattern"
	printf '  "benchtime": "%s",\n' "$benchtime"
	printf '  "count": %s,\n' "$count"
	printf '  "raw": "%s"\n' "$raw"
	printf '}\n'
} >"$out"

echo "wrote $out" >&2
