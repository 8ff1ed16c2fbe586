// Package v1 is the versioned wire API of the cdserved solver service — the
// single importable source of truth for every JSON body that crosses the
// HTTP boundary. The server (internal/serve), the trace generator's client
// mode (cdtrace -solve), the cluster forwarding path (internal/clusterd)
// and the benchmark (perfbench) all marshal exactly these types, so the
// schema cannot drift between the producer and any consumer.
//
// The exported surface of this package is pinned by api/v1.golden.txt via
// scripts/apicheck.sh: changing a field name, type, or JSON tag fails
// scripts/check.sh until the golden file is regenerated deliberately.
// Additive evolution (new optional fields) is fine; renames and removals
// belong in a /v2.
//
// Endpoints:
//
//	POST /v1/solve           one instance, one solver, per-request deadline
//	POST /v1/churn           churn-loop simulation streamed as JSON lines
//	GET  /v1/solvers         the registry catalog
//	GET  /v1/cluster/health  node capacity + peer liveness (cluster gossip)
//	GET  /healthz            liveness + drain state (always 200)
//
// Client is the typed HTTP client over these messages.
package v1
