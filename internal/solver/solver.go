// Package solver is the single source of truth for the stack's algorithm
// catalog: every runnable content-distribution algorithm is registered here
// under its canonical name with a constructor taking uniform Options. The
// CLI tools, the experiment drivers, and the broadcast simulator all resolve
// algorithms through this registry instead of hand-rolling their own
// name→constructor lists, so names and default worker counts cannot drift
// between layers. A solve's telemetry needs no wiring here: every algorithm
// reports to the collector of the instance it runs on
// (reward.Instance.SetCollector).
package solver

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/pointset"
	"repro/internal/shard"
	"repro/internal/vec"
)

// Options is the single options surface every solver entry point shares —
// the registry constructors here, the exhaustive baseline's Solve, and the
// serving layer's wire schema all marshal exactly these knobs. The zero
// value is always usable: all CPUs, seed 0, no enrichment.
type Options struct {
	// Workers bounds a parallel algorithm's worker count; <= 0 uses all
	// CPUs (parallel.DefaultWorkers).
	Workers int
	// Seed drives any randomness the algorithm carries (the random
	// baseline's placement, greedy4's Welzl shuffle). Deterministic per
	// seed.
	Seed uint64
	// WarmStart, when non-empty, wraps the algorithm in core.WarmStarted:
	// the carried-over centers are scored against the cold solve on the
	// current instance and the better of the two is returned. Re-solve
	// loops pass the previous period's centers here.
	WarmStart []vec.V
	// Shards > 1 routes the solve through the spatial
	// partition → shard-solve → merge pipeline (internal/shard): the
	// instance is split into Shards balanced grid-cell shards, each solved
	// by the named algorithm with a seed derived from the root Seed and the
	// shard's content-derived identity, and the candidate union is
	// lazy-greedy merged against the full instance. 0 or 1 solves
	// single-shot. The composite name "sharded(<inner>)" does the same with
	// DefaultShards when Shards is unset.
	Shards int
	// Halo is the sharded pipeline's boundary-halo width in grid-cell
	// rings: 0 uses the default of one ring (one coverage radius), -1
	// disables the halo (other negatives are rejected by ValidateSharding).
	// Ignored for single-shot solves.
	Halo int
	// Refine is the near-linear solver's per-center local-refinement round
	// budget: 0 uses core.DefaultRefineRounds, negative disables
	// refinement. The other solvers ignore it.
	Refine int
	// Remote, when non-nil and the solve is sharded, is tried first for
	// every shard solve — cluster mode installs its peer-forwarding seam
	// here. A failure falls back to the local inner solver with identical
	// results per the core.PartSolver contract. Ignored for single-shot
	// solves.
	Remote core.PartSolver

	// The remaining knobs configure the exhaustive baseline ("exhaustive"
	// in the catalog); the greedy constructors ignore them.

	// GridPer adds a uniform lattice with GridPer points per dimension to
	// the exhaustive candidate set (0 disables enrichment).
	GridPer int
	// Box bounds the enrichment lattice; a zero Box uses the data bounds.
	Box pointset.Box
	// Polish refines each center of the exhaustive winner by block
	// coordinate ascent, letting the baseline leave the candidate lattice.
	Polish bool
	// DisablePrune turns off the exhaustive branch-and-bound pruning.
	// Pruning never changes the result; the flag exists for the
	// equivalence tests and benches.
	DisablePrune bool
}

// Entry is one registered algorithm.
type Entry struct {
	// Name is the canonical identifier (e.g. "greedy2-lazy").
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// New constructs the algorithm for the given options, without the
	// sharding and warm-start wrapping (the package-level New applies
	// them).
	New func(Options) core.Algorithm
}

// registry maps canonical names to entries; names holds registration order.
var (
	registry = map[string]Entry{}
	names    []string
)

// Register adds an entry. Registering an empty or duplicate name is an
// error so two layers cannot silently claim the same identifier.
func Register(e Entry) error {
	if e.Name == "" || e.New == nil {
		return fmt.Errorf("solver: entry needs a name and a constructor")
	}
	if _, dup := registry[e.Name]; dup {
		return fmt.Errorf("solver: duplicate algorithm %q", e.Name)
	}
	registry[e.Name] = e
	names = append(names, e.Name)
	return nil
}

// mustRegister is Register for the built-in catalog, where a failure is a
// programming error.
func mustRegister(e Entry) {
	if err := Register(e); err != nil {
		panic(err)
	}
}

func init() {
	mustRegister(Entry{
		Name:    "greedy1",
		Summary: "Algorithm 1: round-based with the multistart continuous inner solver",
		New: func(o Options) core.Algorithm {
			return core.RoundBased{Solver: optimize.Multistart{Workers: o.Workers}}
		},
	})
	mustRegister(Entry{
		Name:    "greedy2",
		Summary: "Algorithm 2: best data point per round by coverage reward",
		New: func(o Options) core.Algorithm {
			return core.LocalGreedy{Workers: o.Workers}
		},
	})
	mustRegister(Entry{
		Name:    "greedy2-lazy",
		Summary: "Algorithm 2 accelerated by lazy (CELF) evaluation; bit-identical output",
		New: func(o Options) core.Algorithm {
			return core.LazyGreedy{}
		},
	})
	mustRegister(Entry{
		Name:    "greedy2+swap",
		Summary: "Algorithm 2 refined by 1-swap local search",
		New: func(o Options) core.Algorithm {
			return core.SwapLocalSearch{Seed: core.LocalGreedy{Workers: o.Workers}}
		},
	})
	mustRegister(Entry{
		Name:    "greedy3",
		Summary: "Algorithm 3: heaviest remaining single-point reward per round",
		New: func(o Options) core.Algorithm {
			return core.SimpleGreedy{}
		},
	})
	mustRegister(Entry{
		Name:    "greedy4",
		Summary: "Algorithm 4: disk-growing walk from every seed point",
		New: func(o Options) core.Algorithm {
			return core.ComplexGreedy{Workers: o.Workers, Seed: o.Seed}
		},
	})
	mustRegister(Entry{
		Name:    "nearlinear",
		Summary: "grid-snapped approximate greedy: O(occupied cells) per round, k-means++ seeded, locally refined",
		New: func(o Options) core.Algorithm {
			return core.NearLinear{Seed: o.Seed, Refine: o.Refine}
		},
	})
	mustRegister(Entry{
		Name:    "random",
		Summary: "baseline: k centers uniform over the data bounding box",
		New: func(o Options) core.Algorithm {
			return core.RandomPlacement(o.Seed)
		},
	})
}

// CatalogError formats the canonical unknown-name error every name-resolving
// surface shares — the solver registry, the experiment registry, and the
// serving layer all answer an unknown name with
//
//	<domain>: unknown <kind> "<name>" (have: a | b | c)
//
// where the catalog is sorted. Keeping the text in one place means `cdgreedy
// -alg`, `cdbench -run`, and `POST /v1/solve` cannot drift apart.
func CatalogError(domain, kind, name string, have []string) error {
	sorted := append([]string{}, have...)
	sort.Strings(sorted)
	return fmt.Errorf("%s: unknown %s %q (have: %s)", domain, kind, name, strings.Join(sorted, " | "))
}

// Lookup returns the entry registered under name, if any.
func Lookup(name string) (Entry, bool) {
	e, ok := registry[name]
	return e, ok
}

// DefaultShards is the shard count a composite "sharded(<inner>)" name uses
// when Options.Shards is unset. A fixed constant — never the CPU count —
// because the shard count changes the partition and therefore the result;
// results must not depend on the machine that computed them.
const DefaultShards = 8

// ValidateSharding validates the wire-facing sharding knobs. Every surface
// that accepts them — solver.New, POST /v1/solve, and the cdgreedy flags —
// answers an out-of-range value with exactly this error text, so the
// surfaces cannot drift. Shards must be >= 0 (0 solves single-shot); Halo
// must be >= -1 (-1 disables the halo, 0 uses the default ring).
func ValidateSharding(shards, halo int) error {
	if shards < 0 {
		return fmt.Errorf("shards = %d, want >= 0", shards)
	}
	if halo < -1 {
		return fmt.Errorf("halo = %d, want >= -1", halo)
	}
	return nil
}

// EffectiveShards resolves the shard count a solve of the given name and
// Options.Shards value actually runs with: the composite "sharded(<inner>)"
// form defaults to DefaultShards when Shards is unset, a plain name shards
// only when Shards > 1, so its 1 is the 0 of a single-shot solve. Exactly
// New's dispatch logic, exposed so a request can be resolved to the solve
// it runs without re-encoding the rules.
func EffectiveShards(name string, shards int) int {
	_, composite := ShardedInner(name)
	switch {
	case composite && shards == 0:
		return DefaultShards
	case !composite && shards == 1:
		return 0
	}
	return shards
}

// ShardedInner parses the composable registry form "sharded(<inner>)",
// returning the inner name and true on match. The serving layer's cluster
// coordinator uses it to learn which algorithm a forwarded shard should run.
func ShardedInner(name string) (string, bool) {
	const prefix, suffix = "sharded(", ")"
	if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) && len(name) > len(prefix)+len(suffix) {
		return name[len(prefix) : len(name)-len(suffix)], true
	}
	return "", false
}

// Check reports whether name resolves to a constructible algorithm: a
// registry entry, or the composite "sharded(<inner>)" around one. Request
// resolution validates wire names through this so its catalog errors
// cannot drift from New's.
func Check(name string) error {
	_, err := entry(name)
	return err
}

// entry looks up the registry entry a name runs: the name itself, or the
// inner name of a composite "sharded(<inner>)".
func entry(name string) (Entry, error) {
	if inner, ok := ShardedInner(name); ok {
		name = inner
	}
	e, ok := registry[name]
	if !ok {
		return Entry{}, CatalogError("solver", "algorithm", name, Names())
	}
	return e, nil
}

// New resolves a registered name and constructs the algorithm. Unknown
// names report the sorted catalog so callers' error messages are
// self-describing.
//
// Two composable sharding surfaces resolve here: the name form
// "sharded(<inner>)" (shard count from opts.Shards, DefaultShards when
// unset) and opts.Shards > 1 on a plain registry name. Both construct the
// partition → shard-solve → merge pipeline of internal/shard around the
// inner entry.
func New(name string, opts Options) (core.Algorithm, error) {
	if err := ValidateSharding(opts.Shards, opts.Halo); err != nil {
		return nil, fmt.Errorf("solver: %w", err)
	}
	e, err := entry(name)
	if err != nil {
		return nil, err
	}
	if _, composite := ShardedInner(name); composite || opts.Shards > 1 {
		return newSharded(e, e.Name, EffectiveShards(name, opts.Shards), opts), nil
	}
	alg := e.New(opts)
	if len(opts.WarmStart) > 0 {
		alg = core.WarmStarted{Base: alg, Prev: opts.WarmStart}
	}
	return alg, nil
}

// newSharded assembles the sharded pipeline around a registry entry. The
// inner per-shard constructor strips the warm start (applied once, around
// the whole pipeline) and the sharding knobs themselves (no recursive
// sharding); everything else — Workers, the exhaustive knobs — passes
// through. The derived per-shard seed replaces the root seed.
func newSharded(e Entry, inner string, shards int, opts Options) core.Algorithm {
	newInner := func(seed uint64) core.Algorithm {
		o := opts
		o.Seed = seed
		o.Shards = 0
		o.Halo = 0
		o.WarmStart = nil
		o.Remote = nil
		return e.New(o)
	}
	alg := shard.NewSolver(inner, newInner, shard.Options{
		Shards:  shards,
		Halo:    opts.Halo,
		Workers: opts.Workers,
		Seed:    opts.Seed,
		Remote:  opts.Remote,
	})
	if len(opts.WarmStart) > 0 {
		alg = core.WarmStarted{Base: alg, Prev: opts.WarmStart}
	}
	return alg
}

// Names returns every registered name, sorted.
func Names() []string {
	out := append([]string{}, names...)
	sort.Strings(out)
	return out
}

// PaperNames lists the four algorithms of the source paper in its order —
// the canonical comparison set for -all runs and the experiment drivers.
func PaperNames() []string {
	return []string{"greedy1", "greedy2", "greedy3", "greedy4"}
}
