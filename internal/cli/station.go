package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -pprof
	"os"
	"strings"

	"repro/internal/broadcast"
	"repro/internal/norm"
	"repro/internal/report"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/trace"
)

// servePprof starts the net/http/pprof endpoint on addr and returns a stop
// function. The listener binds synchronously so a bad address fails fast;
// serving happens in the background for the lifetime of the run.
func servePprof(addr string, stdout io.Writer) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listen: %w", err)
	}
	srv := &http.Server{} // nil handler: the DefaultServeMux pprof routes
	go srv.Serve(ln)
	fmt.Fprintf(stdout, "pprof: http://%s/debug/pprof/\n", ln.Addr())
	return func() { srv.Close() }, nil
}

// modeFlags maps each flag that only some of cdstation's modes read to
// those modes, named as on the command line; every mode reads the rest.
var modeFlags = map[string]string{
	"periods": stationOrChurn, "arrivals": stationOrChurn, "departs": stationOrChurn, "seed": stationOrChurn,
	"drift": stationMode, "replace": stationMode, "stations": stationMode, "assign": stationMode,
	"slots": stationMode + " or -timeline", "warm": "-churn", "index": "-churn",
}

const stationMode, stationOrChurn = "the default station mode", stationMode + " or -churn"

// Station implements cdstation: the time-slotted base-station simulation.
// A flag the selected mode does not read is an error. Cancellation (ctx or
// -timeout) is a clean exit: metrics over the periods completed so far are
// printed with a note.
func Station(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("cdstation", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		tracePath = fs.String("trace", "-", "trace file (JSON or CSV by extension; '-' reads JSON from stdin)")
		algName   = fs.String("alg", "greedy2", "algorithm: "+strings.Join(solver.Names(), " | "))
		k         = fs.Int("k", 2, "broadcasts per period")
		r         = fs.Float64("r", 1.5, "content scope radius")
		normName  = fs.String("norm", "l2", "interest-distance norm: l1 | l2 | linf")
		periods   = fs.Int("periods", 10, "broadcast periods to simulate")
		drift     = fs.Float64("drift", 0.1, "per-period interest drift sigma")
		replace   = fs.Float64("replace", 0.05, "per-period user replacement probability")
		arrivals  = fs.Float64("arrivals", 0, "mean new users per period (Poisson)")
		departs   = fs.Float64("departs", 0, "per-period probability a user leaves for good (-churn mode: mean departures per period, Poisson)")
		churnMode = fs.Bool("churn", false, "dynamic-instance mode: Poisson arrivals/departures with a re-solve per period on the population as it stands")
		warm      = fs.Bool("warm", false, "with -churn: warm-start each re-solve from the previous period's centers")
		index     = fs.String("index", "none", "with -churn: neighbour index built each period: none | grid (never changes a result)")
		slots     = fs.Int("slots", 0, "broadcast slots per period (0 = k)")
		stations  = fs.Int("stations", 1, "number of base stations (users partitioned among them)")
		assign    = fs.String("assign", "nearest-anchor", "multi-station user assignment: random | nearest-anchor")
		timeline  = fs.Bool("timeline", false, "treat the input as a recorded timeline (cdtrace -timeline) and replay it")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		metrics   = fs.String("metrics", "", "write a telemetry snapshot (counters, timers) as JSON to this file ('-' = stdout)")
		events    = fs.String("events", "", "stream telemetry events as JSONL to this file: one span per stage (each churn period a churn.period span, each round a core.round span)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
		timeout   = fs.Duration("timeout", 0, "overall deadline; on expiry metrics over the completed periods are printed and the tool exits cleanly (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode := stationMode
	switch {
	case *timeline && *churnMode:
		return errors.New("cdstation: -churn and -timeline select different modes")
	case *timeline:
		mode = "-timeline"
	case *churnMode:
		mode = "-churn"
	}
	var stray error
	fs.Visit(func(f *flag.Flag) {
		if need, ok := modeFlags[f.Name]; ok && !strings.Contains(need, mode) && stray == nil {
			stray = fmt.Errorf("cdstation: -%s needs %s", f.Name, need)
		}
	})
	if stray != nil {
		return stray
	}
	// Checked in every mode, though only a run with -stations above 1 reads it.
	assignMode, ok := map[string]broadcast.AssignMode{
		"random": broadcast.RandomAssign, "nearest-anchor": broadcast.NearestAnchor}[*assign]
	if !ok {
		return fmt.Errorf("cdstation: unknown assignment %q (random | nearest-anchor)", *assign)
	}
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()
	if *pprofAddr != "" {
		stop, err := servePprof(*pprofAddr, stdout)
		if err != nil {
			return err
		}
		defer stop()
	}
	tel, err := newTelemetry(*metrics, *events)
	if err != nil {
		return err
	}
	if *timeline {
		if err := stationTimeline(ctx, *tracePath, stdin, stdout, *algName, *k, *r, *normName, *slots, tel); err != nil {
			return err
		}
		return tel.Close(stdout)
	}
	tr, err := ReadTrace(*tracePath, stdin)
	if err != nil {
		return err
	}
	nm, err := norm.ByName(*normName)
	if err != nil {
		return err
	}
	if *churnMode {
		if err := stationChurn(ctx, tr, stdout, broadcast.ChurnConfig{
			K: *k, Radius: *r, Norm: nm, Periods: *periods,
			ArrivalRate: *arrivals, DepartRate: *departs,
			Solver: *algName, Seed: *seed, WarmStart: *warm,
			Index: *index, Obs: tel.Collector(),
		}); err != nil {
			return err
		}
		return tel.Close(stdout)
	}
	alg, err := solver.New(*algName, solver.Options{})
	if err != nil {
		return err
	}
	cfg := broadcast.Config{
		K: *k, Radius: *r, Norm: nm, Periods: *periods,
		DriftSigma: *drift, ChurnRate: *replace,
		ArrivalRate: *arrivals, DepartRate: *departs,
		SlotsPerPeriod: *slots, Seed: *seed, Obs: tel.Collector(),
	}
	if *stations > 1 {
		mm, cerr := broadcast.RunMulti(ctx, tr, alg, cfg, *stations, assignMode)
		if cerr != nil && (mm == nil || ctx.Err() == nil) {
			return cerr
		}
		tb := report.NewTable(fmt.Sprintf("%d stations (%s assignment), %s, k=%d each, r=%g",
			*stations, *assign, alg.Name(), *k, *r),
			"station", "users", "mean satisfaction", "fairness")
		for _, s := range mm.Stations {
			if s.Users == 0 {
				tb.AddRow(s.Station, 0, "-", "-")
				continue
			}
			tb.AddRow(s.Station, s.Users, s.Metrics.MeanSatisfaction, s.Metrics.Fairness)
		}
		fmt.Fprint(stdout, tb.Render())
		fmt.Fprintf(stdout, "aggregate satisfaction: %.4f (total budget %d broadcasts/period)\n",
			mm.MeanSatisfaction, mm.TotalBroadcasts)
		if cerr != nil {
			cancelNote(stdout, cerr)
		}
		return tel.Close(stdout)
	}
	m, cerr := broadcast.Run(ctx, tr, alg, cfg)
	if cerr != nil && (m == nil || ctx.Err() == nil) {
		return cerr
	}
	tb := report.NewTable(fmt.Sprintf("base station: %s, k=%d, r=%g, %s", m.Algorithm, *k, *r, nm.Name()),
		"period", "reward", "max (Σw)", "satisfaction")
	for _, p := range m.Periods {
		tb.AddRow(p.Period, p.Reward, p.MaxRwd, p.Reward/p.MaxRwd)
	}
	fmt.Fprint(stdout, tb.Render())
	fmt.Fprintf(stdout, "mean satisfaction:    %.4f\n", m.MeanSatisfaction)
	fmt.Fprintf(stdout, "fairness (Jain):      %.4f\n", m.Fairness)
	fmt.Fprintf(stdout, "service frequency:    %.2f rounds/period\n", m.ServiceFrequency)
	fmt.Fprintf(stdout, "satisfaction/slot:    %.4f\n", m.SatisfactionPerSlot)
	if len(m.UserSatisfaction) > 0 {
		// [0, 1] is closed: a perfect score lands in the top bin.
		h, err := stats.NewHistogram(0, 1, 10)
		if err == nil {
			for _, s := range m.UserSatisfaction {
				h.Add(s)
			}
			fmt.Fprintf(stdout, "per-user satisfaction distribution (%d users):\n%s", h.N(), h.Render(32))
		}
	}
	if cerr != nil {
		cancelNote(stdout, cerr)
	}
	return tel.Close(stdout)
}

// stationChurn runs the dynamic-instance churn loop (-churn): the population
// evolves by Poisson arrivals/departures, with one (optionally warm-started)
// re-solve per period on an instance built from the population.
func stationChurn(ctx context.Context, tr *trace.Trace, stdout io.Writer, cfg broadcast.ChurnConfig) error {
	m, cerr := broadcast.RunChurn(ctx, tr, cfg)
	if cerr != nil && (m == nil || ctx.Err() == nil) {
		return cerr
	}
	tb := report.NewTable(fmt.Sprintf("churn loop: %s, k=%d, r=%g, arrivals=%g departs=%g, index=%s warm=%v",
		m.Solver, cfg.K, cfg.Radius, cfg.ArrivalRate, cfg.DepartRate, cfg.Index, cfg.WarmStart),
		"period", "users", "+in", "-out", "objective", "carry-over", "satisfaction")
	for _, p := range m.Periods {
		carry := "-"
		if p.Period > 0 {
			carry = fmt.Sprintf("%.4f", p.CarryObjective)
		}
		tb.AddRow(p.Period, p.N, p.Arrivals, p.Departures, p.Objective, carry, p.Objective/p.MaxRwd)
	}
	fmt.Fprint(stdout, tb.Render())
	fmt.Fprintf(stdout, "mean satisfaction:    %.4f\n", m.MeanSatisfaction)
	fmt.Fprintf(stdout, "mean population:      %.1f\n", m.MeanPopulation)
	fmt.Fprintf(stdout, "churn applied:        +%d / -%d users (%d incremental deltas, %d full rebuilds)\n",
		m.TotalArrivals, m.TotalDepartures, m.IncrementalDeltas, m.FullRebuilds)
	if cerr != nil {
		cancelNote(stdout, cerr)
	}
	return nil
}

// stationTimeline replays a recorded timeline through the algorithm. The
// caller owns the telemetry's lifecycle; only the collector is used here.
func stationTimeline(ctx context.Context, path string, stdin io.Reader, stdout io.Writer, algName string, k int, r float64, normName string, slots int, tel *telemetry) error {
	var rdr io.Reader = stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rdr = f
	}
	tl, err := trace.ReadTimelineJSON(rdr)
	if err != nil {
		return err
	}
	nm, err := norm.ByName(normName)
	if err != nil {
		return err
	}
	alg, err := solver.New(algName, solver.Options{})
	if err != nil {
		return err
	}
	m, cerr := broadcast.RunTimeline(ctx, tl, alg, broadcast.Config{
		K: k, Radius: r, Norm: nm, SlotsPerPeriod: slots, Obs: tel.Collector(),
	})
	if cerr != nil && (m == nil || ctx.Err() == nil) {
		return cerr
	}
	tb := report.NewTable(fmt.Sprintf("timeline replay: %s, %d periods, k=%d, r=%g, %s",
		m.Algorithm, len(m.Periods), k, r, nm.Name()),
		"period", "reward", "max (Σw)", "satisfaction")
	for _, p := range m.Periods {
		tb.AddRow(p.Period, p.Reward, p.MaxRwd, p.Reward/p.MaxRwd)
	}
	fmt.Fprint(stdout, tb.Render())
	fmt.Fprintf(stdout, "mean satisfaction:    %.4f\n", m.MeanSatisfaction)
	fmt.Fprintf(stdout, "fairness (Jain):      %.4f\n", m.Fairness)
	if cerr != nil {
		cancelNote(stdout, cerr)
	}
	return nil
}
