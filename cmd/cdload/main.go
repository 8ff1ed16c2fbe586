// Command cdload is an open-loop SLO harness for cdserved: it offers
// Poisson arrivals at a fixed rate (a slow server does not slow the
// generator, so saturation shows up as latency, 429s, and drops rather
// than being hidden by coordinated omission), mixes /v1/solve and
// /v1/churn requests, and reports client-side latency quantiles plus
// error/reject/partial rates.
//
// The exit status encodes the SLO verdict: -slo-p99 bounds the merged p99
// latency and -max-5xx caps server errors, so CI can gate directly on the
// command. -json prints the full report, every latency quantile and
// outcome count, as one JSON document.
//
// Usage:
//
//	cdload -url http://127.0.0.1:8080 -rate 100 -duration 30s -churn 0.2
//	cdload -rate 50 -duration 10s -slo-p99 500ms -max-5xx 0
//	cdload -rate 50 -duration 10s -json > load.json
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
)

func main() {
	// SIGINT/SIGTERM stop scheduling new arrivals; in-flight requests are
	// drained and the report covers what ran.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := cli.Load(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
