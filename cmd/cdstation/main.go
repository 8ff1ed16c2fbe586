// Command cdstation runs the time-slotted base-station simulator (the
// system the paper motivates) over a trace: each period the station selects
// k broadcast contents with the chosen algorithm while user interests drift
// and the population churns. With -churn it switches to the dynamic-instance
// loop: Poisson arrivals and departures change the population between
// periods, and each period is re-solved (optionally warm-started) on an
// instance built from the population as it stands.
//
// Usage:
//
//	cdtrace -n 60 -kind zipf | cdstation -alg greedy2 -k 3 -periods 10
//	cdstation -trace t.json -alg greedy4 -k 2 -r 1.5 -drift 0.2 -replace 0.1
//	cdtrace -n 200 | cdstation -churn -arrivals 5 -departs 3 -warm -index grid
//	cdtrace -n 500 | cdstation -periods 200 -pprof localhost:6060 -metrics -
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
	// SIGINT/SIGTERM cancel the run's context; the tools treat that as a
	// clean early exit with partial output. A second signal kills outright
	// (stop() restores default handling once the context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := cli.Station(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
