package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/load"
)

// Load implements cdload: the open-loop SLO harness. It offers Poisson
// arrivals at -rate for -duration against -url, prints the SLO report, and
// exits non-zero when the -slo-p99 / -max-5xx objectives are violated — so
// a CI script can gate on `cdload ... || exit 1` directly.
func Load(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("cdload", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		url      = fs.String("url", "http://127.0.0.1:8080", "target base URL, or a comma-separated list to spread load across cluster nodes")
		rate     = fs.Float64("rate", 50, "offered load in requests per second (Poisson arrivals)")
		duration = fs.Duration("duration", 10*time.Second, "how long to generate arrivals")
		churn    = fs.Float64("churn", 0, "fraction of arrivals that are /v1/churn requests, in [0,1]")
		dup      = fs.Float64("dup", 0, "fraction of solve arrivals replaying a previous body (cache hits), in [0,1]; the rest get fresh unique instances")
		n        = fs.Int("n", 200, "users per generated instance")
		dim      = fs.Int("dim", 2, "instance dimensionality")
		k        = fs.Int("k", 4, "broadcast contents per request")
		radius   = fs.Float64("r", 1.0, "coverage radius")
		periods  = fs.Int("periods", 3, "periods per churn request")
		solverN  = fs.String("alg", "", "solver algorithm name (empty = server default)")
		deadline = fs.Int64("deadline-ms", 0, "per-request deadline_ms forwarded to the server (0 = none)")
		seed     = fs.Uint64("seed", 1, "seed for instances and arrival randomness")
		timeout  = fs.Duration("timeout", load.DefaultTimeout, "client-side per-request timeout")
		maxIn    = fs.Int("max-in-flight", load.DefaultMaxInFlight, "cap on outstanding requests; arrivals past it are dropped")
		sloP99   = fs.Duration("slo-p99", 0, "fail unless merged p99 latency is within this bound (0 = unchecked)")
		max5xx   = fs.Int("max-5xx", -1, "fail if more than this many 5xx responses (-1 = unchecked)")
		jsonOut  = fs.Bool("json", false, "print the full report as JSON instead of the human summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var targets []string
	for _, u := range strings.Split(*url, ",") {
		if u = strings.TrimSpace(u); u != "" {
			targets = append(targets, u)
		}
	}
	rep, err := load.Run(ctx, load.Config{
		BaseURLs:      targets,
		Rate:          *rate,
		Duration:      *duration,
		ChurnFraction: *churn,
		DupFraction:   *dup,
		N:             *n,
		Dim:           *dim,
		K:             *k,
		Radius:        *radius,
		Periods:       *periods,
		Solver:        *solverN,
		DeadlineMS:    *deadline,
		Seed:          *seed,
		Timeout:       *timeout,
		MaxInFlight:   *maxIn,
	})
	if err != nil {
		return fmt.Errorf("cdload: %w", err)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return fmt.Errorf("cdload: %w", err)
		}
	} else {
		rep.Print(stdout)
	}
	if err := rep.CheckSLO(*sloP99, *max5xx); err != nil {
		return fmt.Errorf("cdload: %w", err)
	}
	return nil
}
