package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
)

// Bench implements cdbench: regenerate paper tables and figures.
// Cancellation (ctx or -timeout) is a clean exit: experiments that finished
// are already printed, the partially-run one is dropped with a note.
func Bench(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cdbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		runID   = fs.String("run", "all", "experiment id to run, or 'all'")
		seed    = fs.Uint64("seed", 42, "experiment seed (results are reproducible per seed)")
		trials  = fs.Int("trials", 0, "trials per configuration cell (0 = default 5)")
		workers = fs.Int("workers", 0, "worker goroutines (0 = all CPUs)")
		quick   = fs.Bool("quick", false, "shrunken smoke-test run")
		csvDir  = fs.String("csv", "", "directory to also write per-figure CSV files into")
		mdPath  = fs.String("md", "", "file to write a consolidated markdown report into")
		plot    = fs.Bool("plot", false, "render each figure as an ASCII chart too")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		metrics = fs.String("metrics", "", "write a telemetry snapshot (per-experiment wall time plus solver counters) as JSON to this file ('-' = stdout)")
		timeout = fs.Duration("timeout", 0, "overall deadline; on expiry completed experiments stand and the tool exits cleanly (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()
	if *list {
		for _, e := range experiments.Registry() {
			fmt.Fprintf(stdout, "%-22s %s\n", e.ID, e.Title)
		}
		return nil
	}
	tel, err := newTelemetry(*metrics, "")
	if err != nil {
		return err
	}
	col := tel.Collector()

	cfg := experiments.RunConfig{Seed: *seed, Trials: *trials, Workers: *workers, Quick: *quick, Obs: col}
	var todo []experiments.Experiment
	if *runID == "all" {
		todo = experiments.Registry()
	} else {
		e, err := experiments.ByID(*runID)
		if err != nil {
			return err
		}
		todo = []experiments.Experiment{e}
	}

	var md strings.Builder
	for _, e := range todo {
		if cerr := ctx.Err(); cerr != nil {
			cancelNote(stdout, cerr)
			break
		}
		start := time.Now()
		out, err := e.Run(ctx, cfg)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				fmt.Fprintf(stdout, "### %s — %s: stopped early, results dropped\n\n", e.ID, e.Title)
				cancelNote(stdout, cerr)
				break
			}
			return fmt.Errorf("cdbench: %s: %w", e.ID, err)
		}
		if obs.Active(col) {
			col.Count(obs.CtrExperiments, 1)
			col.TimeNS(obs.TimExperiment, time.Since(start).Nanoseconds())
		}
		if *mdPath != "" {
			md.WriteString(report.RenderMarkdown(
				fmt.Sprintf("%s — %s", e.ID, e.Title), out.Tables, out.Figures, out.Notes))
		}
		fmt.Fprintf(stdout, "### %s — %s (%.2fs)\n\n", e.ID, e.Title, time.Since(start).Seconds())
		fmt.Fprint(stdout, out.Render())
		if *plot {
			for _, f := range out.Figures {
				fmt.Fprint(stdout, report.LinePlot(f, 72, 20))
				fmt.Fprintln(stdout)
			}
		}
		fmt.Fprintln(stdout)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			for _, f := range out.Figures {
				path := filepath.Join(*csvDir, f.ID+".csv")
				if err := os.WriteFile(path, []byte(f.RenderCSV()), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "wrote %s\n", path)
			}
		}
	}
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(md.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *mdPath)
	}
	return tel.Close(stdout)
}
