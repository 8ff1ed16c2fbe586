#!/bin/sh
# Cluster smoke test: boot a 3-node local cdserved cluster, fan a sharded
# solve out across it, kill one peer mid-run, and assert the coordinator
# still lands the bit-identical answer via local fallback.
#
# Topology: two plain peers plus one coordinator whose -peers points at both.
# The coordinator runs with -cache-bytes 0 (so repeat solves re-forward
# instead of answering from cache) and a long -gossip-every (so after the
# kill its peer table stays stale and the dead peer keeps getting picked —
# the forward fails, the fallback path must answer).
#
# Run from the repository root: ./scripts/smoke_cluster.sh
set -eu

cd "$(dirname "$0")/.."

BIN="$(mktemp -d)"
PIDS=""
cleanup() {
	for pid in $PIDS; do
		kill "$pid" 2>/dev/null || true
	done
	rm -rf "$BIN"
}
trap cleanup EXIT

fail() {
	echo "smoke-cluster: $1" >&2
	exit 1
}

echo "==> building cdserved + cdtrace"
go build -o "$BIN" ./cmd/cdserved ./cmd/cdtrace

# start_node <logfile> <args...>; sets NODE_PID and NODE_URL. Runs in the
# main shell (not a subshell) so `wait` can observe the node's exit status.
start_node() {
	log="$1"
	shift
	# Create the log first: the backgrounded node opens it only once it
	# runs, and the sed below must not race that open.
	: >"$log"
	"$BIN/cdserved" "$@" >"$log" 2>&1 &
	NODE_PID=$!
	PIDS="$PIDS $NODE_PID"
	NODE_URL=""
	tries=0
	while [ -z "$NODE_URL" ]; do
		NODE_URL="$(sed -n 's/.*listening on \(http:\/\/[^ ]*\).*/\1/p' "$log")"
		[ -n "$NODE_URL" ] && break
		tries=$((tries + 1))
		[ "$tries" -lt 100 ] || fail "cdserved never printed its listening address: $(cat "$log")"
		kill -0 "$NODE_PID" 2>/dev/null || fail "cdserved died at startup: $(cat "$log")"
		sleep 0.05
	done
}

# The same deterministic population and solve request every time: cdtrace's
# -solve mode regenerates the trace from -seed and POSTs it through the typed
# api/v1 client, so every node must answer with bit-identical centers.
solve() {
	"$BIN/cdtrace" -n 3000 -seed 7 -solve "$1" -k 6 -r 0.5 -alg greedy2-lazy -shards 4
}

# Strip the per-run fields (request id, wall time, cache flag) so two solve
# responses diff clean exactly when centers/gains/total are bit-identical.
stable() {
	grep -v -e '"request_id"' -e '"wall_ns"' -e '"cached"' "$1"
}

echo "==> starting two peers"
start_node "$BIN/peer1.log" -addr 127.0.0.1:0
P1_PID=$NODE_PID P1=$NODE_URL
start_node "$BIN/peer2.log" -addr 127.0.0.1:0
P2_PID=$NODE_PID P2=$NODE_URL
echo "    peer1 $P1 (pid $P1_PID), peer2 $P2 (pid $P2_PID)"

echo "==> reference: the same sharded solve on a single node"
solve "$P1" >"$BIN/ref.json" || fail "reference solve against $P1 failed"
grep -q '"total":' "$BIN/ref.json" || fail "reference solve has no total"

echo "==> starting the coordinator (peers: both; cache off; stale gossip)"
start_node "$BIN/coord.log" -addr 127.0.0.1:0 \
	-peers "$P1,$P2" -cache-bytes 0 -gossip-every 5m
C_PID=$NODE_PID COORD=$NODE_URL
grep -q "cluster mode" "$BIN/coord.log" ||
	fail "coordinator did not report cluster mode: $(cat "$BIN/coord.log")"

# The startup gossip sweep runs async; wait until both peers are live.
tries=0
while :; do
	live="$(curl -sf "$COORD/v1/cluster/health" | grep -o '"live":true' | wc -l)"
	[ "$live" -eq 2 ] && break
	tries=$((tries + 1))
	[ "$tries" -lt 100 ] || fail "coordinator never saw 2 live peers (saw $live)"
	sleep 0.05
done

echo "==> 3-node solve must forward shards and match the single node bit-for-bit"
solve "$COORD" >"$BIN/c1.json" || fail "cluster solve against $COORD failed"
stable "$BIN/ref.json" >"$BIN/ref.stable"
stable "$BIN/c1.json" >"$BIN/c1.stable"
diff -u "$BIN/ref.stable" "$BIN/c1.stable" >/dev/null ||
	fail "3-node result differs from single-node: $(diff "$BIN/ref.stable" "$BIN/c1.stable" | head -20)"
curl -sf -H 'Accept: text/plain' "$COORD/metrics" >"$BIN/m1.txt"
grep -q '^cd_cluster_forwards_total [1-9]' "$BIN/m1.txt" ||
	fail "coordinator forwarded no shards: $(grep cd_cluster "$BIN/m1.txt")"
grep -q '^cd_cluster_peers_live 2' "$BIN/m1.txt" ||
	fail "cd_cluster_peers_live is not 2: $(grep cd_cluster "$BIN/m1.txt")"

echo "==> kill peer2 mid-run; the in-flight and following solves must still land"
solve "$COORD" >"$BIN/c2.json" &
SOLVE_PID=$!
kill -9 "$P2_PID"
wait "$SOLVE_PID" || fail "solve in flight during the kill failed"
solve "$COORD" >"$BIN/c3.json" || fail "solve after the kill failed"
for f in c2 c3; do
	stable "$BIN/$f.json" >"$BIN/$f.stable"
	diff -u "$BIN/ref.stable" "$BIN/$f.stable" >/dev/null ||
		fail "post-kill result $f differs from single-node: $(diff "$BIN/ref.stable" "$BIN/$f.stable" | head -20)"
done
# The stale peer table still ranks peer2 live, so the least-loaded pick
# alternates onto it, the forward gets connection-refused, and the shard is
# re-solved locally — visible as a nonzero fallback counter.
curl -sf -H 'Accept: text/plain' "$COORD/metrics" >"$BIN/m2.txt"
grep -q '^cd_cluster_fallbacks_total [1-9]' "$BIN/m2.txt" ||
	fail "no local fallback was counted after the kill: $(grep cd_cluster "$BIN/m2.txt")"

echo "==> coordinator and surviving peer drain clean"
for pid in "$C_PID" "$P1_PID"; do
	kill -TERM "$pid"
	status=0
	wait "$pid" || status=$?
	[ "$status" -eq 0 ] || fail "node (pid $pid) exited $status on SIGTERM"
done
grep -q "drain complete" "$BIN/coord.log" ||
	fail "coordinator log lacks the drain-complete line: $(cat "$BIN/coord.log")"
PIDS=""

echo "smoke-cluster OK"
