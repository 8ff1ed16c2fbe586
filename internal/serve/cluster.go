package serve

import (
	"net/http"

	v1 "repro/api/v1"
	"repro/internal/clusterd"
	"repro/internal/core"
	"repro/internal/solver"
)

// handleClusterHealth answers GET /v1/cluster/health — the gossip probe of
// cluster mode. Like /healthz it never blocks and always answers 200; the
// capacity numbers (worker slots, in-flight, queued, queue depth) are what a
// coordinating peer ranks this node by, and Draining tells peers to stop
// forwarding here. A standalone node answers too (empty Advertise, no
// peers), so probes need no mode detection.
func (s *Server) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, "", errf(http.StatusMethodNotAllowed, v1.CodeMethodNotAllowed,
			"%s %s: use GET", r.Method, r.URL.Path))
		return
	}
	h := v1.ClusterHealth{
		Draining:   s.draining.Load(),
		Workers:    s.cfg.workers(),
		InFlight:   int(s.inFlight.Load()),
		Queued:     s.adm.queued(),
		QueueDepth: s.cfg.queueDepth(),
	}
	if cl := s.cfg.Cluster; cl != nil {
		h.Advertise = cl.Advertise()
		h.Peers = cl.Snapshot()
	}
	writeJSON(w, "", http.StatusOK, h)
}

// clusterRemote builds the peer-forwarding PartSolver for one resolved
// solve request, or nil when the solve stays local: no cluster configured,
// no peers, or not a sharded solve (shards <= 1 — nothing to fan out). The
// PartSolver itself clears the coordinator-only options and stamps in the
// per-shard seed.
func (s *Server) clusterRemote(requestID, solverName, normName string, opts v1.SolveOptions) core.PartSolver {
	cl := s.cfg.Cluster
	if cl == nil || cl.NumPeers() == 0 || opts.Shards <= 1 {
		return nil
	}
	inner, composite := solver.ShardedInner(solverName)
	if !composite {
		inner = solverName
	}
	return cl.PartSolver(clusterd.ForwardSpec{
		Solver:    inner,
		Norm:      normName,
		Options:   opts,
		RequestID: requestID,
	})
}
