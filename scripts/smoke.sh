#!/bin/sh
# Smoke test for the anytime-cancellation contract of the cmd/ binaries:
# build each tool, run it with a -timeout short enough to trip mid-work, and
# assert a clean exit (status 0) whose output carries either a finished run
# or the early-stop note with whatever partial results were committed.
# It also checks a few flag and output contracts of the tools, and runs
# every program under examples/, each of which must exit 0 with output.
# Run from the repository root: ./scripts/smoke.sh
set -eu

cd "$(dirname "$0")/.."

BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"' EXIT

echo "==> building cmd binaries"
go build -o "$BIN" ./cmd/...

fail() {
	echo "smoke: $1" >&2
	exit 1
}

# expect_clean <label> <output-file> <exit-status>
expect_clean() {
	[ "$3" -eq 0 ] || fail "$1 exited $3 (cancellation must be a clean exit)"
	[ -s "$2" ] || fail "$1 produced no output"
}

echo "==> cdtrace: generate a working trace (with its own -timeout)"
status=0
"$BIN/cdtrace" -n 400 -seed 7 -timeout 10s >"$BIN/trace.json" 2>&1 || status=$?
expect_clean cdtrace "$BIN/trace.json" "$status"

echo "==> cdgreedy: 1ns deadline must yield a clean partial run"
status=0
"$BIN/cdgreedy" -trace "$BIN/trace.json" -k 8 -timeout 1ns >"$BIN/greedy.out" 2>&1 || status=$?
expect_clean cdgreedy "$BIN/greedy.out" "$status"
grep -q "note: run stopped early" "$BIN/greedy.out" ||
	fail "cdgreedy output lacks the early-stop note"

echo "==> cdgreedy: generous deadline must finish without the note"
status=0
"$BIN/cdgreedy" -trace "$BIN/trace.json" -k 2 -timeout 1m >"$BIN/greedy_full.out" 2>&1 || status=$?
expect_clean cdgreedy "$BIN/greedy_full.out" "$status"
grep -q "note: run stopped early" "$BIN/greedy_full.out" &&
	fail "uncancelled cdgreedy run printed the early-stop note"

echo "==> cdgreedy: a 40,000-user greedy2-lazy solve must stop within 5s of a 300ms deadline"
# At r = 1 in the 4x4 box a grid window holds about 40% of the users, so
# the first round alone takes seconds (about 14 s for the whole solve on 2
# vCPUs): the deadline must cut it, not wait for it.
"$BIN/cdtrace" -n 40000 -seed 3 >"$BIN/trace_40k.json" || fail "cdtrace -n 40000 failed"
status=0
start="$(date +%s)"
"$BIN/cdgreedy" -trace "$BIN/trace_40k.json" -alg greedy2-lazy -k 4 -r 1 -timeout 300ms >"$BIN/greedy_40k.out" 2>&1 || status=$?
took=$(($(date +%s) - start))
expect_clean "cdgreedy -alg greedy2-lazy (n=40000)" "$BIN/greedy_40k.out" "$status"
grep -q "note: run stopped early" "$BIN/greedy_40k.out" ||
	fail "cdgreedy -alg greedy2-lazy (n=40000) output lacks the early-stop note"
# Whole seconds: a run of 5s or more always reads at least 5.
[ "$took" -lt 5 ] ||
	fail "cdgreedy -alg greedy2-lazy (n=40000) took ${took}s past a 300ms deadline"

echo "==> cdgreedy: near-linear grid solver must finish clean with k centers"
status=0
"$BIN/cdgreedy" -trace "$BIN/trace.json" -alg nearlinear -refine 2 -k 4 -timeout 1m >"$BIN/greedy_nls.out" 2>&1 || status=$?
expect_clean "cdgreedy -alg nearlinear" "$BIN/greedy_nls.out" "$status"
grep -q "nearlinear on" "$BIN/greedy_nls.out" ||
	fail "cdgreedy -alg nearlinear output lacks the algorithm header"
grep -q "total reward" "$BIN/greedy_nls.out" ||
	fail "cdgreedy -alg nearlinear output lacks a total"

echo "==> cdgreedy: a sharded solve's -metrics snapshot must carry its pipeline telemetry"
status=0
"$BIN/cdgreedy" -trace "$BIN/trace.json" -alg 'sharded(greedy2-lazy)' -k 4 -metrics - >"$BIN/greedy_shard.out" 2>&1 || status=$?
[ "$status" -eq 0 ] || fail "cdgreedy -alg sharded(greedy2-lazy) exited $status: $(cat "$BIN/greedy_shard.out")"
# The snapshot starts at the first line that is exactly "{".
sed -n '/^{$/,$p' "$BIN/greedy_shard.out" >"$BIN/greedy_shard_metrics.json"
grep -q '"shard.parts": [0-9]' "$BIN/greedy_shard_metrics.json" ||
	fail "sharded cdgreedy -metrics lacks a shard.parts counter"
grep -q '"core.rounds": 4,\{0,1\}$' "$BIN/greedy_shard_metrics.json" ||
	fail "sharded cdgreedy -metrics does not report core.rounds = 4"

echo "==> cdstation: 1ns deadline must yield a clean partial run"
status=0
"$BIN/cdstation" -trace "$BIN/trace.json" -k 4 -periods 50 -timeout 1ns >"$BIN/station.out" 2>&1 || status=$?
expect_clean cdstation "$BIN/station.out" "$status"
grep -q "note: run stopped early" "$BIN/station.out" ||
	fail "cdstation output lacks the early-stop note"

echo "==> cdstation -churn: the same run with no -index, -index none and -index grid must finish clean with the same output"
for index in default none grid; do
	flag=""
	[ "$index" = default ] || flag="-index $index"
	status=0
	# $flag is unquoted on purpose: empty, it passes no argument.
	"$BIN/cdstation" -trace "$BIN/trace.json" -churn -arrivals 5 -departs 3 -periods 6 \
		-warm $flag -timeout 1m >"$BIN/churn-$index.out" 2>&1 || status=$?
	expect_clean "cdstation -churn $flag" "$BIN/churn-$index.out" "$status"
	# The table title names the index; every other byte must match.
	sed "s/index=[a-z]* warm=/index=* warm=/" "$BIN/churn-$index.out" >"$BIN/churn-$index.cmp"
done
grep -q "churn loop" "$BIN/churn-none.out" ||
	fail "cdstation -churn output lacks the churn-loop table"
grep -q "incremental deltas" "$BIN/churn-none.out" ||
	fail "cdstation -churn output lacks the delta summary"
grep -q "note: run stopped early" "$BIN/churn-none.out" &&
	fail "uncancelled cdstation -churn run printed the early-stop note"
cmp -s "$BIN/churn-none.cmp" "$BIN/churn-default.cmp" && cmp -s "$BIN/churn-none.cmp" "$BIN/churn-grid.cmp" ||
	fail "cdstation -churn output differs across no -index, -index none and -index grid"

echo "==> cdstation -churn -index kdtree must fail with unknown index"
status=0
"$BIN/cdstation" -trace "$BIN/trace.json" -churn -index kdtree >"$BIN/churn-kdtree.out" 2>&1 || status=$?
[ "$status" -ne 0 ] && grep -q "unknown index" "$BIN/churn-kdtree.out" ||
	fail "cdstation -churn -index kdtree exited $status without an unknown-index error"

echo "==> cdstation -index grid without -churn must fail naming the flag"
status=0
"$BIN/cdstation" -trace "$BIN/trace.json" -index grid -periods 2 >"$BIN/station-index.out" 2>&1 || status=$?
[ "$status" -ne 0 ] && grep -q -- "-index needs -churn" "$BIN/station-index.out" ||
	fail "cdstation -index grid without -churn exited $status without naming -index"

echo "==> cdstation -assign bogus with one station must fail with unknown assignment"
status=0
"$BIN/cdstation" -trace "$BIN/trace.json" -assign bogus -periods 2 >"$BIN/station-assign.out" 2>&1 || status=$?
[ "$status" -ne 0 ] && grep -q "unknown assignment" "$BIN/station-assign.out" ||
	fail "cdstation -assign bogus exited $status without an unknown-assignment error"

echo "==> cdbench: 50ms deadline must yield a clean partial run"
status=0
"$BIN/cdbench" -run summary -timeout 50ms >"$BIN/bench.out" 2>&1 || status=$?
expect_clean cdbench "$BIN/bench.out" "$status"
grep -q "note: run stopped early" "$BIN/bench.out" ||
	fail "cdbench output lacks the early-stop note"

echo "==> examples: each must exit 0 with output on stdout"
mkdir "$BIN/examples"
go build -o "$BIN/examples" ./examples/...
for ex in "$BIN"/examples/*; do
	status=0
	"$ex" >"$BIN/example.out" 2>"$BIN/example.err" || status=$?
	[ "$status" -eq 0 ] || fail "example $(basename "$ex") exited $status: $(cat "$BIN/example.err")"
	[ -s "$BIN/example.out" ] || fail "example $(basename "$ex") printed nothing on stdout"
done

echo "==> cdserved: start, serve one solve over HTTP, drain clean on SIGTERM"
# Create the log first: the backgrounded server opens it only once it runs,
# and the sed below must not race that open.
: >"$BIN/served.out"
"$BIN/cdserved" -addr 127.0.0.1:0 -drain-grace 5s >"$BIN/served.out" 2>&1 &
SERVED_PID=$!
base=""
tries=0
while [ -z "$base" ]; do
	base="$(sed -n 's/.*listening on \(http:\/\/[^ ]*\).*/\1/p' "$BIN/served.out")"
	[ -n "$base" ] && break
	tries=$((tries + 1))
	[ "$tries" -lt 100 ] || {
		kill "$SERVED_PID" 2>/dev/null || true
		fail "cdserved never printed its listening address"
	}
	kill -0 "$SERVED_PID" 2>/dev/null || fail "cdserved died at startup: $(cat "$BIN/served.out")"
	sleep 0.05
done
curl -sf "$base/healthz" >"$BIN/served_health.json" ||
	{ kill "$SERVED_PID" 2>/dev/null || true; fail "cdserved /healthz unreachable"; }
grep -q '"status":"ok"' "$BIN/served_health.json" ||
	fail "cdserved /healthz did not report ok: $(cat "$BIN/served_health.json")"
"$BIN/cdtrace" -n 60 -seed 7 -format set >"$BIN/served_set.json" ||
	fail "cdtrace -format set failed"
printf '{"instance":%s,"radius":1.5,"k":3}' "$(cat "$BIN/served_set.json")" >"$BIN/served_req.json"
curl -sf -X POST --data-binary @"$BIN/served_req.json" "$base/v1/solve" >"$BIN/served_solve.json" ||
	{ kill "$SERVED_PID" 2>/dev/null || true; fail "cdserved POST /v1/solve failed"; }
grep -q '"total":' "$BIN/served_solve.json" ||
	fail "cdserved solve response lacks a total: $(cat "$BIN/served_solve.json")"

echo "==> cdserved: a replayed identical solve is served from the cache"
curl -sf -X POST --data-binary @"$BIN/served_req.json" "$base/v1/solve" >"$BIN/served_solve2.json" ||
	{ kill "$SERVED_PID" 2>/dev/null || true; fail "cdserved duplicate POST /v1/solve failed"; }
grep -q '"cached":true' "$BIN/served_solve2.json" ||
	fail "duplicate solve not served from cache: $(cat "$BIN/served_solve2.json")"
# The cached body must carry the same result as the original.
total1="$(sed -n 's/.*"total":\([0-9.eE+-]*\).*/\1/p' "$BIN/served_solve.json")"
total2="$(sed -n 's/.*"total":\([0-9.eE+-]*\).*/\1/p' "$BIN/served_solve2.json")"
[ "$total1" = "$total2" ] ||
	fail "cached solve total $total2 differs from original $total1"
curl -sf -H 'Accept: text/plain' "$base/metrics" | grep -q '^cd_cache_hits_total [1-9]' ||
	fail "cd_cache_hits_total did not count the cache hit"

echo "==> cdserved: /metrics content-negotiates the Prometheus text format"
curl -sf -H 'Accept: text/plain' "$base/metrics" >"$BIN/served_prom.txt" ||
	{ kill "$SERVED_PID" 2>/dev/null || true; fail "cdserved /metrics (text/plain) unreachable"; }
grep -q '^cd_serve_requests_total ' "$BIN/served_prom.txt" ||
	fail "prometheus exposition lacks cd_serve_requests_total: $(head -5 "$BIN/served_prom.txt")"
grep -q '^# TYPE cd_serve_route_request_seconds histogram' "$BIN/served_prom.txt" ||
	fail "prometheus exposition lacks the per-route latency histogram"
grep -q '_ns ' "$BIN/served_prom.txt" &&
	fail "prometheus exposition leaked a nanosecond metric name"
curl -sf "$base/metrics" | grep -q '"counters"' ||
	fail "cdserved /metrics default JSON output lost"

kill -TERM "$SERVED_PID"
status=0
wait "$SERVED_PID" || status=$?
[ "$status" -eq 0 ] || fail "cdserved exited $status on SIGTERM (drain must be a clean exit)"
grep -q "drain complete" "$BIN/served.out" ||
	fail "cdserved output lacks the drain-complete line: $(cat "$BIN/served.out")"

echo "smoke OK"
