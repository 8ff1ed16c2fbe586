package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	v1 "repro/api/v1"
	"repro/internal/pointset"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// TraceGen implements cdtrace: generate synthetic interest traces.
// Generation is fast; ctx is honored between the parse and the generate so
// an already-expired deadline still exits cleanly without output.
func TraceGen(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cdtrace", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		n        = fs.Int("n", 40, "number of users")
		dim      = fs.Int("dim", 2, "interest-space dimensionality")
		side     = fs.Float64("side", 4, "side length of the interest region (paper uses 4)")
		kind     = fs.String("kind", "uniform", "population model: uniform | clustered | zipf")
		weights  = fs.String("weights", "random", "weight scheme: same | random (integers 1..5)")
		topics   = fs.Int("topics", 5, "topic/community count for clustered and zipf")
		sigma    = fs.Float64("sigma", 0.3, "within-community spread")
		zipfS    = fs.Float64("zipf-s", 1, "zipf popularity exponent")
		seed     = fs.Uint64("seed", 1, "generator seed")
		format   = fs.String("format", "json", "output format: json | csv | set (the pointset schema POST /v1/solve takes as \"instance\")")
		timeline = fs.Int("timeline", 0, "emit a drifting timeline with this many period snapshots (JSON only)")
		tlDrift  = fs.Float64("timeline-drift", 0.15, "per-period drift sigma for -timeline")
		keywords = fs.String("keywords", "", "comma-separated names for the interest dimensions (e.g. \"genre,tempo\")")
		timeout  = fs.Duration("timeout", 0, "deadline for the generation (0 = none)")
		solveURL = fs.String("solve", "", "POST the generated population to this cdserved base URL's /v1/solve and print the typed response instead of the trace")
		solveK   = fs.Int("k", 4, "broadcast contents to request with -solve")
		solveR   = fs.Float64("r", 1.0, "coverage radius to request with -solve")
		solveAlg = fs.String("alg", "", "solver name to request with -solve (empty = server default)")
		shards   = fs.Int("shards", 0, "options.shards to request with -solve (>1 fans out on a cluster node)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()
	if cerr := ctx.Err(); cerr != nil {
		cancelNote(stdout, cerr)
		return nil
	}
	k, err := trace.KindByName(*kind)
	if err != nil {
		return err
	}
	scheme, err := WeightSchemeByName(*weights)
	if err != nil {
		return err
	}
	if *dim <= 0 || *side <= 0 {
		return fmt.Errorf("cdtrace: dim and side must be positive")
	}
	lo, hi := vec.New(*dim), vec.New(*dim)
	for d := range hi {
		hi[d] = *side
	}
	tr, err := trace.Generate(trace.Config{
		N:      *n,
		Box:    pointset.Box{Lo: lo, Hi: hi},
		Kind:   k,
		Scheme: scheme,
		Topics: *topics,
		Sigma:  *sigma,
		ZipfS:  *zipfS,
	}, xrand.New(*seed))
	if err != nil {
		return err
	}
	if *keywords != "" {
		tr.Keywords = strings.Split(*keywords, ",")
		if err := tr.Validate(); err != nil {
			return err
		}
	}
	if *solveURL != "" {
		// One-shot smoke client: the same typed api/v1 Client the cluster
		// forwarding path uses, so a generated population can be thrown at
		// a running server without hand-writing JSON.
		set, err := tr.ToSet()
		if err != nil {
			return err
		}
		req := &v1.SolveRequest{
			Instance: set,
			Radius:   *solveR,
			K:        *solveK,
			Solver:   *solveAlg,
			Options:  v1.SolveOptions{Shards: *shards},
		}
		resp, err := v1.NewClient(*solveURL, nil).Solve(ctx, req, "")
		if err != nil {
			return fmt.Errorf("cdtrace: solve: %w", err)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	}
	if *timeline > 0 {
		if *format != "json" {
			return fmt.Errorf("cdtrace: -timeline supports only -format json")
		}
		tl, err := trace.RecordTimeline(tr, *timeline, *tlDrift, xrand.New(*seed^0x71e))
		if err != nil {
			return err
		}
		return tl.WriteJSON(stdout)
	}
	switch *format {
	case "json":
		return tr.WriteJSON(stdout)
	case "csv":
		return tr.WriteCSV(stdout)
	case "set":
		// The pointset wire schema — the same codec the serving layer
		// decodes, so `cdtrace -format set` output drops straight into a
		// /v1/solve request's "instance" field.
		set, err := tr.ToSet()
		if err != nil {
			return err
		}
		enc := json.NewEncoder(stdout)
		return enc.Encode(set)
	default:
		return fmt.Errorf("cdtrace: unknown format %q (json | csv | set)", *format)
	}
}

// WeightSchemeByName parses the CLI weight-scheme names.
func WeightSchemeByName(s string) (pointset.WeightScheme, error) {
	switch s {
	case "same":
		return pointset.UnitWeight, nil
	case "random":
		return pointset.RandomIntWeight, nil
	default:
		return 0, fmt.Errorf("unknown weight scheme %q (same | random)", s)
	}
}
