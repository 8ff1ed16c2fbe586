// Package clusterd is cdserved's peer layer: it turns a set of independent
// single-box servers into a solve cluster with no new wire surface beyond
// GET /v1/cluster/health. Every node runs the same HTTP service; cluster mode
// adds two loops on top:
//
//   - Gossip: each node periodically probes every configured peer's
//     /v1/cluster/health and keeps a local table of liveness and capacity
//     (worker slots, in-flight, queued). A peer is live when its last probe
//     succeeded and it was not draining.
//
//   - Forwarding: when a node coordinates a sharded solve (POST /v1/solve
//     with shards > 1), it installs a core.PartSolver built here that ships
//     each shard's sub-instance to the least-loaded live peer as a plain
//     single-shot /v1/solve — so the peer's own admission control, solve
//     cache, and single-flight collapsing apply to forwarded work with no
//     special casing — and returns the peer's centers to the local merge.
//
// Determinism: a forwarded shard solve runs the same inner algorithm under
// the same derived seed as the local solve would, and float64 coordinates
// survive the JSON round trip exactly (Go encodes the shortest
// representation that parses back to the same bits), so the merge input —
// and therefore the final result — is bit-identical regardless of which node
// solved which shard. A forward that fails (dead peer, saturation, drain, a
// partial answer under the peer's deadline cap, an answer the coordinator's
// checks reject) is not an error: the pipeline falls back to solving that
// shard locally, counted by cd_cluster_fallbacks_total.
package clusterd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	v1 "repro/api/v1"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reward"
	"repro/internal/vec"
)

// Defaults for Config's zero values.
const (
	// DefaultGossipEvery is the gossip period.
	DefaultGossipEvery = 2 * time.Second
	// probeLimit bounds one health probe; a probe never outlasts the gossip
	// period either.
	probeLimit = 2 * time.Second
	// forwardLimit bounds one forwarded shard solve on top of the
	// coordinator request's own context. Generous: a timeout only delays
	// the local fallback, it never loses the answer.
	forwardLimit = 60 * time.Second
)

// Config parameterizes a Cluster.
type Config struct {
	// Advertise is this node's own base URL as peers would reach it; it is
	// filtered out of Peers so a node never forwards to itself.
	Advertise string
	// Peers are the other nodes' base URLs (static bootstrap, e.g. from the
	// -peers flag). Empties and duplicates are dropped.
	Peers []string
	// GossipEvery is the probe period; 0 means DefaultGossipEvery.
	GossipEvery time.Duration
	// Obs receives the cluster.* series and forward spans.
	Obs obs.Collector
	// HTTP performs probes and forwards; nil uses a plain http.Client.
	// Tests inject httptest clients here.
	HTTP *http.Client
}

func (c Config) gossipEvery() time.Duration {
	if c.GossipEvery > 0 {
		return c.GossipEvery
	}
	return DefaultGossipEvery
}

// peer is one row of the node's peer table. The mutex guards the
// gossip-updated view; pending counts this node's own in-flight forwards to
// the peer, folded into the load score so a burst of shards spreads out
// instead of piling onto whichever peer looked idlest at the last gossip.
type peer struct {
	url    string
	client *v1.Client

	mu       sync.Mutex
	live     bool
	draining bool
	workers  int
	inFlight int
	queued   int
	lastOK   time.Time
	fails    int

	pending atomic.Int64
}

// Cluster is one node's peer layer. Construct with New, call Start to begin
// gossiping, install PartSolver's result into sharded solves, and Stop on
// shutdown. All methods are safe for concurrent use.
type Cluster struct {
	cfg  Config
	col  obs.Collector
	http *http.Client

	peers []*peer // sorted by URL; immutable after New

	// pickMu serializes pick's select-and-reserve so concurrent shard
	// forwards see each other's reservations and spread across peers.
	pickMu sync.Mutex

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New builds the peer table: Peers minus empties, duplicates, and the node's
// own Advertise URL, sorted by URL so every node ranks ties identically. The
// gossip loop is not started; call Start.
func New(cfg Config) *Cluster {
	httpc := cfg.HTTP
	if httpc == nil {
		httpc = &http.Client{}
	}
	self := strings.TrimRight(cfg.Advertise, "/")
	seen := map[string]bool{}
	var peers []*peer
	for _, raw := range cfg.Peers {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" || u == self || seen[u] {
			continue
		}
		seen[u] = true
		peers = append(peers, &peer{url: u, client: v1.NewClient(u, httpc)})
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].url < peers[j].url })
	return &Cluster{
		cfg:   cfg,
		col:   obs.OrNop(cfg.Obs),
		http:  httpc,
		peers: peers,
		stop:  make(chan struct{}),
	}
}

// AddObs fans another collector into the cluster's telemetry, so the serving
// layer can route cluster.* counts into the registry its /metrics endpoint
// snapshots. Must be called before Start; nil is a no-op.
func (c *Cluster) AddObs(col obs.Collector) {
	if col == nil {
		return
	}
	c.col = obs.Multi(c.col, col)
}

// Advertise returns the node's own advertised base URL.
func (c *Cluster) Advertise() string { return strings.TrimRight(c.cfg.Advertise, "/") }

// NumPeers returns the number of configured peers (live or not).
func (c *Cluster) NumPeers() int { return len(c.peers) }

// Start launches the gossip loop: an immediate first sweep, then one every
// GossipEvery until Stop. Start itself does not block on the first sweep.
func (c *Cluster) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.GossipOnce(context.Background())
		t := time.NewTicker(c.cfg.gossipEvery())
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.GossipOnce(context.Background())
			}
		}
	}()
}

// Stop ends the gossip loop and waits for the in-flight sweep. Idempotent.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// GossipOnce probes every peer's /v1/cluster/health once, in parallel, and
// updates the table. Exported so tests (and Start) can drive sweeps
// deterministically without waiting out the ticker.
func (c *Cluster) GossipOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range c.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, min(c.cfg.gossipEvery(), probeLimit))
			defer cancel()
			h, err := p.client.ClusterHealth(pctx)
			p.mu.Lock()
			defer p.mu.Unlock()
			if err != nil {
				p.live = false
				p.fails++
				return
			}
			p.live = !h.Draining
			p.draining = h.Draining
			p.workers = h.Workers
			p.inFlight = h.InFlight
			p.queued = h.Queued
			p.lastOK = time.Now()
			p.fails = 0
		}(p)
	}
	wg.Wait()
	c.col.Count(obs.CtrClusterGossipRounds, 1)
	c.col.Gauge(obs.GaugeClusterPeersLive, float64(c.countLive()))
}

func (c *Cluster) countLive() int {
	n := 0
	for _, p := range c.peers {
		p.mu.Lock()
		if p.live {
			n++
		}
		p.mu.Unlock()
	}
	return n
}

// Snapshot renders the peer table as wire rows (sorted by URL), for the
// node's own /v1/cluster/health answer.
func (c *Cluster) Snapshot() []v1.ClusterPeer {
	out := make([]v1.ClusterPeer, 0, len(c.peers))
	for _, p := range c.peers {
		p.mu.Lock()
		row := v1.ClusterPeer{
			URL:      p.url,
			Live:     p.live,
			Draining: p.draining,
			Workers:  p.workers,
			InFlight: p.inFlight,
			Queued:   p.queued,
			AgeMS:    -1,
			Fails:    p.fails,
		}
		if !p.lastOK.IsZero() {
			row.AgeMS = time.Since(p.lastOK).Milliseconds()
		}
		p.mu.Unlock()
		out = append(out, row)
	}
	return out
}

// pick returns the least-loaded live peer and its position in the peer
// table, with one forward slot reserved on it (the caller must release with
// p.pending.Add(-1)), or nil when none is live. Load is (peer-reported
// in-flight + queued + this node's own pending forwards) per worker slot;
// ties break by URL order, which is identical on every node. Select-and-reserve is one critical section so a burst of
// concurrent shard forwards alternates across peers instead of all reading
// the same stale scores and piling onto one.
func (c *Cluster) pick() (int, *peer) {
	c.pickMu.Lock()
	defer c.pickMu.Unlock()
	var best *peer
	bestAt, bestScore := -1, 0.0
	for i, p := range c.peers {
		p.mu.Lock()
		live, workers, load := p.live, p.workers, p.inFlight+p.queued
		p.mu.Unlock()
		if !live {
			continue
		}
		if workers < 1 {
			workers = 1
		}
		score := float64(load+int(p.pending.Load())) / float64(workers)
		if best == nil || score < bestScore {
			best, bestAt, bestScore = p, i, score
		}
	}
	if best != nil {
		best.pending.Add(1)
	}
	return bestAt, best
}

// ErrNoLivePeer is returned by the forwarding PartSolver when no configured
// peer is live; the pipeline answers it with a local solve.
var ErrNoLivePeer = errors.New("clusterd: no live peer")

// ForwardSpec is the request template a coordinator builds once per sharded
// solve: everything a forwarded shard request shares across shards.
type ForwardSpec struct {
	// Solver is the inner registry algorithm (the sharded composite's inner
	// name), run single-shot on the peer.
	Solver string
	// Norm is the resolved norm name.
	Norm string
	// Options is the coordinator request's options. PartSolver clears the
	// coordinator-only fields (Shards, Halo, WarmStart, Workers) and stamps
	// the derived per-shard seed into each forward.
	Options v1.SolveOptions
	// RequestID, when non-empty, prefixes each forward's X-Request-ID
	// ("<id>/shard-<seed>") so peer-side traces join the coordinator's.
	RequestID string
}

// PartSolver builds the forwarding core.PartSolver for one sharded solve.
// Each call ships the part to the least-loaded live peer as a plain
// single-shot /v1/solve under the derived seed and returns the peer's
// centers. Any failure — no live peer, transport error, a non-2xx answer
// from the peer's admission control, or an answer checkAnswer rejects —
// counts one cd_cluster_fallbacks_total and returns an error, which makes
// the pipeline solve the shard locally with an identical result. A peer
// that refuses a forward as queue_full or draining is marked not live, so
// later parts are not sent to it before the next gossip sweep.
func (c *Cluster) PartSolver(spec ForwardSpec) core.PartSolver {
	return func(ctx context.Context, part core.Part, seed uint64, k int) ([]vec.V, error) {
		pi, p := c.pick()
		if p == nil {
			c.col.Count(obs.CtrClusterFallbacks, 1)
			return nil, ErrNoLivePeer
		}
		// A forwarded shard runs single-shot (no sharding knobs), the warm
		// start applies once around the whole pipeline, and each peer sizes
		// its own parallelism, which cannot change results.
		opts := spec.Options
		opts.Seed = seed
		opts.Shards, opts.Halo, opts.WarmStart, opts.Workers = 0, 0, nil, 0
		req := &v1.SolveRequest{
			Instance: part.In.Set,
			Radius:   part.In.Radius,
			Norm:     spec.Norm,
			Solver:   spec.Solver,
			K:        k,
			Options:  opts,
		}
		id := fmt.Sprintf("shard-%016x", seed)
		if spec.RequestID != "" {
			id = spec.RequestID + "/" + id
		}

		span := obs.StartStage(ctx, c.col, obs.StageClusterForward)
		span.SetAttr("peer", float64(pi))
		span.SetAttr("n", float64(part.In.N()))
		fctx, cancel := context.WithTimeout(ctx, forwardLimit)
		defer cancel()
		resp, err := p.client.Solve(fctx, req, id)
		p.pending.Add(-1) // release the slot pick reserved
		var refused *v1.APIError
		if errors.As(err, &refused) && (refused.Code == v1.CodeQueueFull || refused.Code == v1.CodeDraining) {
			// A full or draining peer refuses every forward until it
			// recovers; pick skips it until a gossip sweep finds it live.
			p.mu.Lock()
			p.live = false
			p.mu.Unlock()
		}
		var centers []vec.V
		if err == nil {
			if centers, err = checkAnswer(part.In, req, resp); err != nil {
				err = fmt.Errorf("clusterd: peer %s: %w", p.url, err)
			}
		}
		if err != nil {
			span.SetAttr("failed", 1)
			span.End()
			if ctx.Err() == nil {
				c.col.Count(obs.CtrClusterFallbacks, 1)
			}
			return nil, err
		}
		c.col.Count(obs.CtrClusterForwards, 1)
		span.SetAttr("centers", float64(len(centers)))
		if resp.Cached {
			span.SetAttr("cached", 1)
		}
		span.End()
		return centers, nil
	}
}

// checkAnswer accepts a peer's answer to a forward of part only when the
// merge can use it, and returns its centers. The answer must be complete,
// hold 1 to k centers, each of the part's dimension with finite
// coordinates, and echo the forward's k, n, radius, norm and solver. Its
// centers, replayed with ApplyRound from fresh residuals on the part, must
// sum to its total within core.SumTolerance. A peer that makes up centers
// and reports their true total passes; only a re-solve would catch it.
func checkAnswer(part *reward.Instance, req *v1.SolveRequest, resp *v1.SolveResponse) ([]vec.V, error) {
	switch {
	case resp.Partial:
		// A partial prefix is a valid answer to the peer's request but not
		// the full shard solve the merge needs.
		return nil, fmt.Errorf("partial result (%d/%d centers)", len(resp.Centers), req.K)
	case len(resp.Centers) < 1 || len(resp.Centers) > req.K:
		return nil, fmt.Errorf("%d centers for k = %d", len(resp.Centers), req.K)
	case resp.K != req.K || resp.N != part.N() || resp.Radius != req.Radius ||
		resp.Norm != req.Norm || resp.Solver != req.Solver:
		return nil, fmt.Errorf("answer for k=%d n=%d radius=%v norm=%q solver=%q, forward was k=%d n=%d radius=%v norm=%q solver=%q",
			resp.K, resp.N, resp.Radius, resp.Norm, resp.Solver, req.K, part.N(), req.Radius, req.Norm, req.Solver)
	}
	dim := part.Set.Dim()
	centers := make([]vec.V, len(resp.Centers))
	y := part.NewResiduals()
	var total float64
	for i, row := range resp.Centers {
		if len(row) != dim {
			return nil, fmt.Errorf("center %d has dimension %d, want %d", i, len(row), dim)
		}
		for _, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("center %d has a non-finite coordinate", i)
			}
		}
		centers[i] = vec.V(append([]float64{}, row...))
		total += part.ApplyRound(centers[i], y)
	}
	// Negated so that a NaN total fails too.
	if !(math.Abs(total-resp.Total) <= core.SumTolerance) {
		return nil, fmt.Errorf("centers replay to a total of %v, answer reports %v", total, resp.Total)
	}
	return centers, nil
}
