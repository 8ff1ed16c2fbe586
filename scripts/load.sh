#!/bin/sh
# Load-test the serving stack: boot a local cdserved (unless URL points at a
# running one), drive it with cdload's open-loop Poisson generator, and gate
# on the SLO flags. Knobs come in as environment variables:
#
#   URL       target a running server instead of booting one (default: boot)
#   RATE      offered requests per second        (default 100)
#   DURATION  arrival-generation window          (default 10s)
#   CHURN     fraction of /v1/churn arrivals     (default 0.2)
#   DUP       fraction of solve arrivals replaying a previous body —
#             guaranteed cache hits; the rest are fresh unique
#             instances (default 0 = pooled bodies)
#   SLO_P99   p99 latency bound, 0 = unchecked   (default 0)
#   MAX_5XX   allowed 5xx responses, -1 = any    (default 0)
#
# Examples:
#   ./scripts/load.sh
#   RATE=500 DURATION=30s SLO_P99=250ms ./scripts/load.sh
#   URL=http://127.0.0.1:8080 ./scripts/load.sh
set -eu

cd "$(dirname "$0")/.."

RATE="${RATE:-100}"
DURATION="${DURATION:-10s}"
CHURN="${CHURN:-0.2}"
DUP="${DUP:-0}"
SLO_P99="${SLO_P99:-0}"
MAX_5XX="${MAX_5XX:-0}"

BIN="$(mktemp -d)"
SERVED_PID=""
cleanup() {
	[ -n "$SERVED_PID" ] && kill -TERM "$SERVED_PID" 2>/dev/null && wait "$SERVED_PID" 2>/dev/null
	rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/cdload ./cmd/cdserved

base="${URL:-}"
if [ -z "$base" ]; then
	"$BIN/cdserved" -addr 127.0.0.1:0 >"$BIN/served.out" 2>&1 &
	SERVED_PID=$!
	tries=0
	while [ -z "$base" ]; do
		base="$(sed -n 's/.*listening on \(http:\/\/[^ ]*\).*/\1/p' "$BIN/served.out")"
		[ -n "$base" ] && break
		tries=$((tries + 1))
		[ "$tries" -lt 100 ] || { echo "load: cdserved never came up" >&2; exit 1; }
		kill -0 "$SERVED_PID" 2>/dev/null || { cat "$BIN/served.out" >&2; exit 1; }
		sleep 0.05
	done
	echo "load: booted cdserved at $base"
fi

"$BIN/cdload" -url "$base" -rate "$RATE" -duration "$DURATION" -churn "$CHURN" \
	-dup "$DUP" -slo-p99 "$SLO_P99" -max-5xx "$MAX_5XX"
