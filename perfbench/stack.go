package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/clusterd"
	"repro/internal/serve"
)

// node is one in-process cdserved instance on a 127.0.0.1:0 listener.
type node struct {
	srv    *serve.Server
	url    string
	addr   string
	served chan error // Serve's return value
}

func startNode(cfg serve.Config, ln net.Listener) *node {
	n := &node{srv: serve.New(cfg), url: "http://" + ln.Addr().String(), addr: ln.Addr().String(),
		served: make(chan error, 1)}
	go func() { n.served <- n.srv.Serve(ln) }()
	return n
}

// stack is the system under test: the target node and, in cluster mode,
// the peers its Cluster forwards shards to. Everything lives in this
// process; close stops all of it.
type stack struct {
	nodes   []*node // nodes[0] is the target
	cluster *clusterd.Cluster
	fwd     *countingTransport // the Cluster's transport to its peers
}

func (st *stack) target() *node { return st.nodes[0] }

// addrs lists every listener the stack opened.
func (st *stack) addrs() []string {
	out := make([]string, len(st.nodes))
	for i, n := range st.nodes {
		out[i] = n.addr
	}
	return out
}

// startStack brings up the target (and its peers), default configs
// throughout, and returns once every peer is live in the target's gossip
// table.
func startStack(ctx context.Context, peers int) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	var peerURLs []string
	for i := 0; i < peers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return st, fmt.Errorf("listen: %w", err)
		}
		p := startNode(serve.Config{}, ln)
		st.nodes = append(st.nodes, p)
		peerURLs = append(peerURLs, p.url)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, fmt.Errorf("listen: %w", err)
	}
	cfg := serve.Config{}
	if peers > 0 {
		st.fwd = &countingTransport{base: &http.Transport{}}
		st.cluster = clusterd.New(clusterd.Config{
			Advertise: "http://" + ln.Addr().String(),
			Peers:     peerURLs,
			HTTP:      &http.Client{Transport: st.fwd},
		})
		cfg.Cluster = st.cluster
	}
	st.nodes = append([]*node{startNode(cfg, ln)}, st.nodes...)
	if st.cluster == nil {
		return st, nil
	}
	st.cluster.Start()
	for !allLive(st.cluster) {
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return st, nil
}

func allLive(cl *clusterd.Cluster) bool {
	for _, p := range cl.Snapshot() {
		if !p.Live {
			return false
		}
	}
	return true
}

// close stops gossip, then drains every node with no grace, so that
// in-flight solves are cancelled at once, and waits for every Serve to
// return. Safe on a partly built stack. The caller closes its own client's
// idle connections first: a server's drain waits up to five seconds for a
// connection that never carried a request.
func (st *stack) close() error {
	if st == nil {
		return nil
	}
	if st.cluster != nil {
		st.cluster.Stop()
	}
	if st.fwd != nil {
		st.fwd.base.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, n := range st.nodes {
		if err := n.srv.Drain(ctx, 0); err != nil {
			errs = append(errs, fmt.Errorf("drain %s: %w", n.url, err))
		}
		if err := <-n.served; err != nil {
			errs = append(errs, fmt.Errorf("serve %s: %w", n.url, err))
		}
	}
	return errors.Join(errs...)
}

// snapshot sums the /metrics counters and timers of every node.
func (st *stack) snapshot() counters {
	c := counters{n: map[string]int64{}, sumNS: map[string]float64{}}
	for _, n := range st.nodes {
		s := n.srv.Metrics().Snapshot()
		for k, v := range s.Counters {
			c.n[k] += v
		}
		for k, h := range s.TimersNS {
			c.sumNS[k] += h.Sum
		}
	}
	if st.fwd != nil {
		c.fwdBytes = st.fwd.bytes.Load()
	}
	return c
}

// counters is a sum of the stack's /metrics snapshots.
type counters struct {
	n        map[string]int64
	sumNS    map[string]float64
	fwdBytes int64
}

func (c counters) sub(prev counters) counters {
	d := counters{n: map[string]int64{}, sumNS: map[string]float64{}, fwdBytes: c.fwdBytes - prev.fwdBytes}
	for k, v := range c.n {
		d.n[k] = v - prev.n[k]
	}
	for k, v := range c.sumNS {
		d.sumNS[k] = v - prev.sumNS[k]
	}
	return d
}

// per divides counter name by den, and is 0 when den is 0.
func (c counters) per(name string, den float64) float64 {
	if den == 0 {
		return 0
	}
	return float64(c.n[name]) / den
}

// perMS divides timer name's total by den, in milliseconds.
func (c counters) perMS(name string, den float64) float64 {
	if den == 0 {
		return 0
	}
	return c.sumNS[name] / den / 1e6
}

// ratio is a/(a+b) over two counters, 0 when both are 0.
func (c counters) ratio(a, b string) float64 {
	x, y := c.n[a], c.n[b]
	if x+y == 0 {
		return 0
	}
	return float64(x) / float64(x+y)
}

// countingTransport counts the body bytes of forwarded /v1/solve calls in
// both directions, so wire traffic per solve includes the shard traffic.
type countingTransport struct {
	base  *http.Transport
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	solve := req.URL.Path == "/v1/solve"
	if solve && req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	rsp, err := t.base.RoundTrip(req)
	if err == nil && solve {
		rsp.Body = &countingBody{ReadCloser: rsp.Body, n: &t.bytes}
	}
	return rsp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}
