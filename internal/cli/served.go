package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"time"

	"repro/internal/clusterd"
	"repro/internal/serve"
	"repro/internal/solver"
)

// Served implements cdserved: the network solver service. It binds the
// listener synchronously (so a bad -addr fails before any output), prints
// the resolved address for scripts to scrape, serves until ctx is cancelled
// (SIGINT/SIGTERM in main), then drains gracefully: admission stops at
// once, in-flight solves get -drain-grace to finish, stragglers are
// cancelled and answer their clients with anytime partial results. A clean
// drain exits 0 and flushes -metrics/-events telemetry.
func Served(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("cdserved", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers     = fs.Int("workers", 0, "max concurrently running solves (0 = one per CPU)")
		queue       = fs.Int("queue", serve.DefaultQueueDepth, "admitted requests that may wait for a worker before 429 (0 = none)")
		maxBody     = fs.Int64("max-body", serve.DefaultMaxBody, "request body cap in bytes (413 past it)")
		retryAfter  = fs.Duration("retry-after", serve.DefaultRetryAfter, "Retry-After hint on 429/503 responses")
		maxDeadline = fs.Duration("max-deadline", 0, "cap every request's deadline_ms; requests asking for more (or none) run under this cap (0 = uncapped)")
		drainGrace  = fs.Duration("drain-grace", 10*time.Second, "time in-flight solves get to finish on SIGTERM before cancellation")
		cacheBytes  = fs.Int64("cache-bytes", serve.DefaultCacheBytes, "solve-result cache budget in bytes (0 disables caching and request collapsing)")
		metrics     = fs.String("metrics", "", "write the final telemetry snapshot as JSON to this file at drain ('-' = stdout)")
		events      = fs.String("events", "", "stream telemetry events as JSONL to this file: each request's span tree, one span per stage down to its solver rounds")
		peers       = fs.String("peers", "", "comma-separated peer base URLs (e.g. http://10.0.0.2:8080,...); non-empty enables cluster mode")
		advertise   = fs.String("advertise", "", "this node's own base URL as peers reach it (default http://<resolved listen address>)")
		gossipEvery = fs.Duration("gossip-every", clusterd.DefaultGossipEvery, "period between peer health probes in cluster mode")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tel, err := newTelemetry(*metrics, *events)
	if err != nil {
		return err
	}
	qd := *queue
	if qd == 0 {
		qd = -1 // Config's "no waiting"; its 0 means the default depth
	}
	cb := *cacheBytes
	if cb == 0 {
		cb = -1 // Config's "caching off"; its 0 means the default budget
	}
	// Listen before building the cluster: the default advertise URL is the
	// resolved address (which a ":0" port only has after binding).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("cdserved: listen: %w", err)
	}
	var cluster *clusterd.Cluster
	if *peers != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		cluster = clusterd.New(clusterd.Config{
			Advertise:   adv,
			Peers:       strings.Split(*peers, ","),
			GossipEvery: *gossipEvery,
			Obs:         tel.Collector(),
		})
	}
	srv := serve.New(serve.Config{
		Workers:     *workers,
		QueueDepth:  qd,
		MaxBody:     *maxBody,
		RetryAfter:  *retryAfter,
		MaxDeadline: *maxDeadline,
		CacheBytes:  cb,
		Obs:         tel.Collector(),
		Cluster:     cluster,
	})
	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(stdout, "cdserved: listening on http://%s (%d solvers, %d workers)\n",
		ln.Addr(), len(solver.Names()), nw)
	if cluster != nil {
		fmt.Fprintf(stdout, "cdserved: cluster mode, advertising %s to %d peer(s), gossip every %s\n",
			cluster.Advertise(), cluster.NumPeers(), *gossipEvery)
		cluster.Start()
		defer cluster.Stop()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		// The listener died on its own; nothing to drain.
		return fmt.Errorf("cdserved: %w", err)
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "cdserved: draining (grace %s)\n", *drainGrace)
	// The drain context bounds total shutdown even if a handler wedges;
	// the grace period governs when in-flight solves are cancelled.
	dctx, cancel := context.WithTimeout(context.Background(), *drainGrace+30*time.Second)
	defer cancel()
	if err := srv.Drain(dctx, *drainGrace); err != nil {
		return fmt.Errorf("cdserved: drain: %w", err)
	}
	if err := <-serveErr; err != nil {
		return fmt.Errorf("cdserved: %w", err)
	}
	fmt.Fprintln(stdout, "cdserved: drain complete")
	return tel.Close(stdout)
}
