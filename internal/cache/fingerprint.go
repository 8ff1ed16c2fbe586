package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"io"
	"math"

	"repro/internal/pointset"
)

// Key is a canonical instance fingerprint — the cache key.
type Key [sha256.Size]byte

// fpVersion tags the fingerprint layout. Bump it whenever the hashed field
// set or encoding changes, so stale processes can never alias keys across
// incompatible layouts.
const fpVersion = "cdfp/3"

// SolveParams is every request parameter that can affect a solve result —
// the fingerprint's input alongside the instance itself.
//
// Deliberately excluded, because they provably cannot change the returned
// centers or gains:
//
//   - Workers: the parallel scans reduce with NaN-guarded argmax over fixed
//     chunk boundaries; results are bit-identical across worker counts
//     (pinned by core's TestDeterminismAcrossWorkers, the per-solver
//     TestDeterministicAcrossWorkers (exhaustive),
//     TestNearLinearDeterminismAcrossWorkers and
//     TestShardedDeterminismAcrossWorkers, and the parallel guard tests).
//   - The request deadline: a deadline changes whether a result is partial,
//     and partial results are never cached.
//   - Request identity (X-Request-ID) and telemetry sinks: presentation,
//     not inputs.
type SolveParams struct {
	Norm   string
	Radius float64
	K      int
	Solver string

	// Result-affecting solver.Options fields.
	Seed         uint64
	GridPer      int
	BoxLo, BoxHi []float64
	Polish       bool
	DisablePrune bool
	WarmStart    [][]float64
	// Shards/Halo select the partition → shard-solve → merge pipeline and
	// its boundary-halo width. Both change the partition and therefore the
	// returned centers, so a sharded and an unsharded solve of the same
	// instance must never share a key.
	Shards int
	Halo   int
	// Refine is the near-linear solver's local-refinement round budget. It
	// moves the returned centers (more refinement, different local optima),
	// so a refined and an unrefined solve must never share a key.
	Refine int
}

// hasher streams length-delimited sections into a sha256 so that adjacent
// variable-length fields can never alias (e.g. coords [1,2],[3] vs [1],[2,3]).
// It hands them to the sha256 in blocks of buf's size, because each Write
// has a fixed cost: written one number at a time, a 100,000-user instance
// took 5.5 ms, in 1 KiB blocks 2.6 ms (4 KiB blocks saved 0.2 ms more, for
// 3 KiB more per key). The hashed byte stream is the same either way.
type hasher struct {
	st  hash.Hash
	buf [1024]byte
	n   int // bytes of buf not yet written to st
}

func (h *hasher) u64(v uint64) {
	if h.n+8 > len(h.buf) {
		h.flush()
	}
	binary.LittleEndian.PutUint64(h.buf[h.n:], v)
	h.n += 8
}

func (h *hasher) flush() {
	h.st.Write(h.buf[:h.n])
	h.n = 0
}

func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *hasher) f64s(vs []float64) {
	h.u64(uint64(len(vs)))
	for len(vs) > 0 {
		m := min(len(vs), (len(h.buf)-h.n)/8)
		if m == 0 {
			h.flush()
			continue
		}
		b := h.buf[h.n : h.n+8*m]
		for i, v := range vs[:m] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		h.n += 8 * m
		vs = vs[m:]
	}
}

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	h.flush()
	io.WriteString(h.st, s)
}

func (h *hasher) bool(b bool) {
	if b {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

// Fingerprint computes the canonical cache key for one solve: a streaming
// hash over the instance's flat row-major coordinates and weights plus
// every result-affecting parameter. Two requests share a key if and only if
// a deterministic solver must return the same result for both.
//
// The instance is hashed from its contiguous Coords() view (bit-exact
// float64 representations, so 0.0 and -0.0 fingerprint differently — they
// are different inputs even if most norms treat them alike), in O(n·dim)
// with no per-point allocation.
func Fingerprint(set *pointset.Set, p SolveParams) Key {
	st := sha256.New()
	h := &hasher{st: st}
	h.str(fpVersion)
	h.u64(uint64(set.Dim()))
	h.f64s(set.Coords())
	h.f64s(set.Weights())
	h.str(p.Norm)
	h.f64(p.Radius)
	h.u64(uint64(p.K))
	h.str(p.Solver)
	h.u64(p.Seed)
	h.u64(uint64(p.GridPer))
	h.f64s(p.BoxLo)
	h.f64s(p.BoxHi)
	h.bool(p.Polish)
	h.bool(p.DisablePrune)
	h.u64(uint64(len(p.WarmStart)))
	for _, row := range p.WarmStart {
		h.f64s(row)
	}
	h.u64(uint64(int64(p.Shards)))
	h.u64(uint64(int64(p.Halo)))
	h.u64(uint64(int64(p.Refine)))
	h.flush()
	var key Key
	st.Sum(key[:0])
	return key
}
