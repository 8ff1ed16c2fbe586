// Command perfbench is the repository's benchmark. It starts the cdserved
// stack inside its own process, on 127.0.0.1:0 listeners, drives one
// workload through the real /v1/solve and /v1/churn handlers over loopback
// HTTP, checks every answer, and prints its metrics by name with units. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics, or with -trace 1
// the per-layer ones. Wall-clock metrics are net of the CPU time the
// hypervisor stole from the machine meanwhile (see steal.go); the raw
// wall-clock values are printed beside them.
//
// Run it from the repository root through its launcher, which builds it
// from source first:
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
//
// Workloads (see workloads in workload.go and BENCHMARK.json):
//
//   - serve-mix: open-loop Poisson arrivals at a fixed rate over nproc
//     connections (65% fresh n=1,000 greedy2-lazy solves, 30% byte-identical
//     replays, 5% three-period churn runs), then a closed loop that measures
//     max_rps.
//   - solve-large: one connection, back to back, n=100,000 k=32
//     sharded(greedy2-lazy) solves of distinct instances.
//   - cluster-large: the same requests to a target whose Cluster forwards
//     the shards to two in-process peers.
//   - nearlinear-large: the same instances solved by nearlinear.
//
// Exit status: 0 when every check passed, 1 when a check failed (the result
// line then says "correct": false), 2 when the run could not complete; an
// interrupted run (SIGINT, SIGTERM) stops every server it started before it
// exits and prints no result.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// runLimit keeps every run inside the three minutes a run may take.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-mix | solve-large | cluster-large | nearlinear-large")
	seed := fs.Uint64("seed", 1, "seed every instance and arrival schedule is drawn from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase, in seconds")
	traced := fs.Int("trace", 0, "1: a traced run that prints the per-layer metrics")
	out := fs.String("out", ".bench_build/spans", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of serve-mix, solve-large, cluster-large, nearlinear-large), -seconds > 0 and -trace 0 or 1\n")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	res, err := runBench(ctx, runConfig{
		w: w, seed: *seed, seconds: *seconds, traced: *traced == 1,
		conns: runtime.NumCPU(), outDir: *out, out: stdout,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}
