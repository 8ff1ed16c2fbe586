package shard

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/spatial"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// genInstance builds a uniform random instance over the paper's box (2-D or
// 3-D) with a grid finder attached, matching how production callers
// (cdserved, the CLI) accelerate neighbor queries.
func genInstance(t testing.TB, n, dim int, nm norm.Norm, r float64, seed uint64) *reward.Instance {
	t.Helper()
	box := pointset.PaperBox2D()
	if dim == 3 {
		box = pointset.PaperBox3D()
	}
	set, err := pointset.GenUniform(n, box, pointset.RandomIntWeight, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	in, err := reward.NewInstance(set, nm, r)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spatial.NewGrid(set.Points(), r)
	if err != nil {
		t.Fatal(err)
	}
	in.SetFinder(g)
	return in
}

// TestSplitRunsInvariants: the linear partition of the cell sweep must yield
// exactly s contiguous non-empty runs covering every cell once, with runs
// roughly balanced by point count.
func TestSplitRunsInvariants(t *testing.T) {
	in := genInstance(t, 900, 2, norm.L2{}, 0.5, 3)
	g, err := spatial.NewGrid(in.Set.Points(), in.Radius)
	if err != nil {
		t.Fatal(err)
	}
	cells := g.Cells()
	n := in.N()
	maxCell := 0
	for _, c := range cells {
		if len(c.Points) > maxCell {
			maxCell = len(c.Points)
		}
	}
	for _, s := range []int{2, 3, 4, 8} {
		runs := splitRuns(cells, n, s)
		if len(runs) != s {
			t.Fatalf("s=%d: %d runs", s, len(runs))
		}
		seen := 0
		for ri, run := range runs {
			if len(run) == 0 {
				t.Fatalf("s=%d: run %d empty", s, ri)
			}
			for _, c := range run {
				seen += len(c.Points)
			}
		}
		if seen != n {
			t.Fatalf("s=%d: runs cover %d points, want %d", s, seen, n)
		}
		// Contiguity: concatenating the runs reproduces the sweep order.
		i := 0
		for _, run := range runs {
			for _, c := range run {
				if &cells[i].Points[0] != &c.Points[0] {
					t.Fatalf("s=%d: runs are not a contiguous split of the sweep", s)
				}
				i++
			}
		}
		// Balance: a run never exceeds the ideal share by more than one
		// cell's worth of points (the cut granularity), except the final
		// run, which absorbs the remainder but is still bounded by the
		// forced-cut construction on uniform data.
		ideal := n / s
		for ri, run := range runs[:len(runs)-1] {
			cnt := 0
			for _, c := range run {
				cnt += len(c.Points)
			}
			if cnt > ideal+maxCell {
				t.Errorf("s=%d run %d: %d points, ideal %d + max cell %d", s, ri, cnt, ideal, maxCell)
			}
		}
	}
}

// TestPartitionInvariants: parts own every point exactly once, halo points
// only ever add to a part's sub-instance, IDs are distinct and
// content-derived, and disabling the halo collapses sub-instances to
// exactly the owned points.
func TestPartitionInvariants(t *testing.T) {
	in := genInstance(t, 800, 2, norm.L2{}, 0.5, 11)
	for _, s := range []int{2, 4, 8} {
		parts, err := Partitioner{Shards: s}.Partition(context.Background(), in, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != s {
			t.Fatalf("s=%d: %d parts", s, len(parts))
		}
		own, ids := 0, map[uint64]bool{}
		haloSeen := false
		for i, p := range parts {
			if p.Own <= 0 {
				t.Fatalf("s=%d part %d: own = %d", s, i, p.Own)
			}
			own += p.Own
			if p.In.N() < p.Own {
				t.Fatalf("s=%d part %d: sub-instance %d < own %d", s, i, p.In.N(), p.Own)
			}
			if p.In.N() > p.Own {
				haloSeen = true
			}
			if ids[p.ID] {
				t.Fatalf("s=%d part %d: duplicate ID %d", s, i, p.ID)
			}
			ids[p.ID] = true
			if p.In.Norm != in.Norm || p.In.Radius != in.Radius {
				t.Fatalf("s=%d part %d: norm/radius not inherited", s, i)
			}
		}
		if own != in.N() {
			t.Fatalf("s=%d: parts own %d points, want %d", s, own, in.N())
		}
		if !haloSeen {
			t.Errorf("s=%d: no part absorbed a halo on a dense uniform instance", s)
		}

		bare, err := Partitioner{Shards: s, Halo: -1}.Partition(context.Background(), in, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range bare {
			if p.In.N() != p.Own {
				t.Fatalf("s=%d part %d: halo disabled but sub-instance %d != own %d", s, i, p.In.N(), p.Own)
			}
			if p.ID != parts[i].ID {
				t.Fatalf("s=%d part %d: ID depends on the halo setting", s, i)
			}
		}
	}
}

// errAfter is a context that turns cancelled on its calls-th read of Err.
type errAfter struct {
	context.Context
	calls int
}

func (c *errAfter) Err() error {
	if c.calls--; c.calls < 0 {
		return context.Canceled
	}
	return nil
}

// TestPartitionReadsDeadlinePerPart: the partition reads its context before
// it copies each part and before it indexes each part, so a deadline that
// passes mid-partition stops it within one part's build, and a sharded
// solve returns its empty valid prefix with the context's error.
func TestPartitionReadsDeadlinePerPart(t *testing.T) {
	in := genInstance(t, 800, 2, norm.L2{}, 0.5, 11)
	for reads := 1; reads <= 4; reads++ {
		ctx := &errAfter{Context: context.Background(), calls: reads}
		parts, err := Partitioner{Shards: 4}.Partition(ctx, in, 4)
		if err != context.Canceled || parts != nil {
			t.Fatalf("cancelled on read %d: %d parts, err %v; want none and context.Canceled", reads+1, len(parts), err)
		}
	}
	alg := NewSolver("greedy2-lazy", func(uint64) core.Algorithm { return core.LazyGreedy{} }, Options{Shards: 4})
	res, err := alg.Run(&errAfter{Context: context.Background(), calls: 3}, in, 4)
	if err != context.Canceled || res == nil || len(res.Centers) != 0 {
		t.Fatalf("sharded solve cut mid-partition: %+v, %v; want the empty prefix and context.Canceled", res, err)
	}
	if verr := res.Validate(); verr != nil {
		t.Fatal(verr)
	}
}

// TestPartitionDegenerate: one shard, or fewer points than shards, falls
// back to a single full-instance part with ID 0.
func TestPartitionDegenerate(t *testing.T) {
	in := genInstance(t, 6, 2, norm.L2{}, 0.5, 2)
	for _, p := range []Partitioner{{Shards: 1}, {Shards: 0}, {Shards: 8}} {
		parts, err := p.Partition(context.Background(), in, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != 1 || parts[0].In != in || parts[0].Own != in.N() || parts[0].ID != 0 {
			t.Fatalf("Partitioner%+v: degenerate case returned %d parts (%+v)", p, len(parts), parts[0])
		}
	}
	if _, err := (Partitioner{Shards: 2}).Partition(context.Background(), nil, 2); err == nil {
		t.Error("nil instance accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Partitioner{Shards: 2}).Partition(ctx, in, 2); err != context.Canceled {
		t.Errorf("pre-cancelled partition err = %v", err)
	}
}

// TestDeriveSeedProperties: the per-shard seed is a pure function of
// (root, partID) — evaluation order cannot matter — and distinct IDs or
// roots give distinct seeds (no accidental collapse of the mix).
func TestDeriveSeedProperties(t *testing.T) {
	ids := []uint64{0, 1, 2, 17, 1 << 40, ^uint64(0)}
	forward := make(map[uint64]uint64, len(ids))
	for _, id := range ids {
		forward[id] = DeriveSeed(42, id)
	}
	for i := len(ids) - 1; i >= 0; i-- { // reversed evaluation order
		if got := DeriveSeed(42, ids[i]); got != forward[ids[i]] {
			t.Fatalf("DeriveSeed(42, %d) unstable: %d vs %d", ids[i], got, forward[ids[i]])
		}
	}
	seen := map[uint64]uint64{}
	for _, id := range ids {
		s := forward[id]
		if prev, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed collision: ids %d and %d both map to %d", prev, id, s)
		}
		seen[s] = id
	}
	if DeriveSeed(1, 5) == DeriveSeed(2, 5) {
		t.Error("root seed does not reach the derived seed")
	}
}

// TestShardedDeterminismAcrossWorkers: the sharded result is bit-identical
// at any worker count — candidates are gathered in part order and seeds are
// content-derived, so goroutine scheduling cannot reach the output.
func TestShardedDeterminismAcrossWorkers(t *testing.T) {
	in := genInstance(t, 600, 2, norm.L2{}, 0.5, 19)
	newInner := func(seed uint64) core.Algorithm { return core.LazyGreedy{} }
	base, err := NewSolver("greedy2-lazy", newInner, Options{Shards: 4, Seed: 7, Workers: 1}).
		Run(context.Background(), in, 6)
	if err != nil {
		t.Fatal(err)
	}
	if base.Algorithm != "sharded(greedy2-lazy)" {
		t.Fatalf("algorithm = %q", base.Algorithm)
	}
	for _, w := range []int{2, 3, 8} {
		got, err := NewSolver("greedy2-lazy", newInner, Options{Shards: 4, Seed: 7, Workers: w}).
			Run(context.Background(), in, 6)
		if err != nil {
			t.Fatal(err)
		}
		if got.Total != base.Total || len(got.Centers) != len(base.Centers) {
			t.Fatalf("workers=%d: total %v (%d centers) vs %v (%d)", w,
				got.Total, len(got.Centers), base.Total, len(base.Centers))
		}
		for j := range base.Centers {
			if !got.Centers[j].Equal(base.Centers[j]) || got.Gains[j] != base.Gains[j] {
				t.Fatalf("workers=%d round %d: result differs from workers=1", w, j)
			}
		}
	}
}

// TestShardedQualityGate is the tier-1 quality-regression gate of the
// pipeline: across norms × dimensions × shard counts on seeded uniform
// instances, the sharded objective must stay within 5% of single-shot
// greedy (the paper's greedy2). Submodularity plus the boundary halo is
// what makes this hold; a partitioner or merge regression trips it.
func TestShardedQualityGate(t *testing.T) {
	const k, minRatio = 8, 0.95
	norms := []norm.Norm{norm.L1{}, norm.L2{}, norm.LInf{}}
	for _, dim := range []int{2, 3} {
		n, r := 1200, 0.5
		if dim == 3 {
			n, r = 900, 0.8
		}
		for _, nm := range norms {
			in := genInstance(t, n, dim, nm, r, uint64(41+dim))
			single, err := core.LocalGreedy{Workers: 1}.Run(context.Background(), in, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("%s/dim%d/s%d", nm.Name(), dim, shards), func(t *testing.T) {
					alg := NewSolver("greedy2-lazy",
						func(uint64) core.Algorithm { return core.LazyGreedy{} },
						Options{Shards: shards, Seed: 1})
					got, err := alg.Run(context.Background(), in, k)
					if err != nil {
						t.Fatal(err)
					}
					if err := got.Validate(); err != nil {
						t.Fatal(err)
					}
					ratio := got.Total / single.Total
					if ratio < minRatio {
						t.Errorf("sharded/single = %.4f < %.2f (sharded %.4f, single %.4f)",
							ratio, minRatio, got.Total, single.Total)
					}
				})
			}
		}
	}
}

// TestShardedHaloImprovesBoundaries: with the halo disabled, boundary
// candidates are scored blind to points across the cut; the default halo
// must never do worse on the same instance (and the run must still be
// valid). This is a property of the candidate pool: a halo only widens
// per-shard visibility, and the merge re-scores both pools against the full
// instance.
func TestShardedHaloImprovesBoundaries(t *testing.T) {
	in := genInstance(t, 1000, 2, norm.L2{}, 0.5, 23)
	run := func(halo int) float64 {
		alg := NewSolver("greedy2-lazy",
			func(uint64) core.Algorithm { return core.LazyGreedy{} },
			Options{Shards: 6, Halo: halo, Seed: 3})
		res, err := alg.Run(context.Background(), in, 6)
		if err != nil {
			t.Fatal(err)
		}
		return res.Total
	}
	withHalo, without := run(0), run(-1)
	if withHalo < 0.99*without {
		t.Errorf("halo total %.4f markedly below halo-free %.4f", withHalo, without)
	}
}

// TestCellHashStability pins the FNV-1a shard identity: coordinate order
// matters, distinct coords hash apart, and the hash of a known coordinate
// never changes (seeds derive from it — silent drift would change results).
func TestCellHashStability(t *testing.T) {
	if cellHash([]int{1, 2}) == cellHash([]int{2, 1}) {
		t.Error("cellHash ignores coordinate order")
	}
	if cellHash([]int{0, 0}) == cellHash([]int{0, 1}) {
		t.Error("cellHash collapses adjacent cells")
	}
	if got := cellHash([]int{3, -4}); got != cellHash([]int{3, -4}) {
		t.Errorf("cellHash unstable: %d", got)
	}
}

// TestHaloRings pins the one halo-normalization point every layer shares:
// zero means the default ring width, any negative means no halo, positives
// pass through.
func TestHaloRings(t *testing.T) {
	cases := []struct{ halo, want int }{
		{0, DefaultHaloRings},
		{-1, 0},
		{-7, 0},
		{1, 1},
		{3, 3},
	}
	for _, tc := range cases {
		if got := HaloRings(tc.halo); got != tc.want {
			t.Errorf("HaloRings(%d) = %d, want %d", tc.halo, got, tc.want)
		}
	}
}

// partsWith partitions in with finder f installed.
func partsWith(t *testing.T, in *reward.Instance, f reward.NeighborFinder, s int) []core.Part {
	t.Helper()
	in.SetFinder(f)
	parts, err := Partitioner{Shards: s}.Partition(context.Background(), in, 4)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// TestPartitionSameWithAnyFinder: Partition reads the instance's grid when
// its finder is one and builds the same grid otherwise, so a grid finder
// and no finder give the same parts: the same IDs, the same owned counts
// and bit-identical sub-instance points and weights. Either way each part
// is indexed as reward.NewIndexed decides: a grid over its points where
// spatial.Prunes holds, as on the 1,500-user instances' parts, and no
// finder where it does not, as on the smaller parts of 300 users.
func TestPartitionSameWithAnyFinder(t *testing.T) {
	indexed, unindexed := 0, 0
	for _, c := range []struct{ n, dim int }{{1500, 2}, {1500, 3}, {300, 2}} {
		in := genInstance(t, c.n, c.dim, norm.L2{}, 0.4, 23)
		grid := in.Finder()
		for _, s := range []int{3, 8} {
			want := partsWith(t, in, grid, s)
			got := partsWith(t, in, nil, s)
			if len(got) != len(want) {
				t.Fatalf("n %d dim %d s=%d: %d parts, want %d", c.n, c.dim, s, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.ID != w.ID || g.Own != w.Own || !reflect.DeepEqual(g.In.Set.Coords(), w.In.Set.Coords()) ||
					!reflect.DeepEqual(g.In.Set.Weights(), w.In.Set.Weights()) {
					t.Fatalf("n %d dim %d s=%d part %d differs from the grid finder's", c.n, c.dim, s, i)
				}
				for _, p := range []*reward.Instance{g.In, w.In} {
					f := p.Finder()
					if !spatial.Prunes(p.Set.Coords(), p.Set.Dim(), p.Radius) {
						unindexed++
						if f != nil {
							t.Errorf("n %d dim %d s=%d part %d (%d users): finder %T, want none", c.n, c.dim, s, i, p.N(), f)
						}
						continue
					}
					indexed++
					if pg, ok := f.(*spatial.Grid); !ok || pg.N() != p.N() {
						t.Errorf("n %d dim %d s=%d part %d (%d users): finder %T, want a grid over its points", c.n, c.dim, s, i, p.N(), f)
					}
				}
			}
		}
	}
	if indexed == 0 || unindexed == 0 {
		t.Fatalf("%d indexed and %d unindexed parts: the cases must give both", indexed, unindexed)
	}
}

// TestPartitionReusesInstanceGrid: Partition cuts the instance's own grid
// instead of building a second one. The grid installed here indexes the
// points mirrored in x, so the same count at the same radius, breaking
// SetFinder's contract on purpose: a partition that built its own grid
// would cut the true points' cells, one that reuses the finder cuts the
// mirror's, exactly as partitioning the mirrored set would.
func TestPartitionReusesInstanceGrid(t *testing.T) {
	in := genInstance(t, 800, 2, norm.L2{}, 0.5, 29)
	mirror := make([]vec.V, in.N())
	for i, p := range in.Set.Points() {
		mirror[i] = vec.Of(-p[0], p[1])
	}
	decoy, err := spatial.NewGrid(mirror, in.Radius)
	if err != nil {
		t.Fatal(err)
	}
	set, err := pointset.New(mirror, in.Set.Weights())
	if err != nil {
		t.Fatal(err)
	}
	mirrored, err := reward.NewInstance(set, in.Norm, in.Radius)
	if err != nil {
		t.Fatal(err)
	}
	const s = 4
	want, own := partsWith(t, mirrored, nil, s), partsWith(t, in, nil, s)
	got := partsWith(t, in, decoy, s)
	same := func(a, b []core.Part) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Own != b[i].Own || a[i].In.N() != b[i].In.N() {
				return false
			}
		}
		return true
	}
	if same(own, want) {
		t.Fatal("mirroring did not change the parts; the check has no power")
	}
	if !same(got, want) {
		t.Fatal("Partition built its own grid instead of cutting the instance's")
	}
}

// TestFinderKeepsCounts: with the instance's grid shared by the partition
// and its windows filled in bulk by the first-round sweep, greedy2-lazy and
// sharded(greedy2-lazy) count the same gain evaluations, lazy re-pops and
// merge re-pops, and select the same centers, as with no finder.
func TestFinderKeepsCounts(t *testing.T) {
	in := genInstance(t, 1200, 2, norm.L2{}, 0.3, 31)
	finders := []func() reward.NeighborFinder{
		func() reward.NeighborFinder { // a fresh grid per run: cold windows
			g, err := spatial.NewGrid(in.Set.Points(), in.Radius)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		func() reward.NeighborFinder { return nil },
	}
	counters := []string{obs.CtrGainEvals, obs.CtrLazyRepops, obs.CtrShardMergeRepops}
	newInner := func(uint64) core.Algorithm { return core.LazyGreedy{} }
	for _, sharded := range []bool{false, true} {
		var want obs.Snapshot
		var wantRes *core.Result
		for fi, finder := range finders {
			f := finder()
			in.SetFinder(f)
			m := obs.NewMetrics()
			in.SetCollector(m)
			var alg core.Algorithm = core.LazyGreedy{}
			if sharded {
				alg = NewSolver("greedy2-lazy", newInner, Options{Shards: 4, Seed: 3, Workers: 2})
			}
			res, err := alg.Run(context.Background(), in, 8)
			if err != nil {
				t.Fatal(err)
			}
			snap := m.Snapshot()
			if fi == 0 {
				want, wantRes = snap, res
				if snap.Counters[obs.CtrGainEvals] == 0 {
					t.Fatal("no gain evaluations counted")
				}
				continue
			}
			for _, name := range counters {
				if a, b := snap.Counters[name], want.Counters[name]; a != b {
					t.Errorf("sharded=%v %T: %s = %d, %d with the grid", sharded, f, name, a, b)
				}
			}
			if res.Total != wantRes.Total || !reflect.DeepEqual(res.Gains, wantRes.Gains) {
				t.Errorf("sharded=%v %T: result differs from the grid finder's", sharded, f)
			}
		}
	}
	in.SetCollector(nil)
}

// refPartIndices is a part's index list built the way the partition once
// built it, kept as the reference: the run's buckets, then every bucket
// within rings of a run cell not taken yet, then one sort.
func refPartIndices(grid *spatial.Grid, run []spatial.Cell, rings int) []int {
	var idx []int
	member := map[int]bool{}
	for _, c := range run {
		idx = append(idx, c.Points...)
		member[c.Points[0]] = true
	}
	if rings > 0 {
		for _, c := range run {
			grid.EachCellNear(c.Coord, rings, func(nc spatial.Cell) {
				if !member[nc.Points[0]] {
					member[nc.Points[0]] = true
					idx = append(idx, nc.Points...)
				}
			})
		}
	}
	slices.Sort(idx)
	return idx
}

// TestPartIndicesMatchSortedBuckets: every part's index list is ascending,
// exactly sized (cap == len), and equals the sorted concatenation of its
// own and halo buckets, at every halo width and shard count, in 2-D and
// 3-D. With more shards than occupied cells, Partition makes one part per
// cell, each holding those points.
func TestPartIndicesMatchSortedBuckets(t *testing.T) {
	for _, c := range []struct {
		n, dim int
		r      float64
	}{{900, 2, 0.5}, {600, 3, 0.9}, {40, 2, 2.5}} {
		in := genInstance(t, c.n, c.dim, norm.L2{}, c.r, 17)
		grid, err := in.Grid()
		if err != nil {
			t.Fatal(err)
		}
		cells := grid.Cells()
		for _, s := range []int{2, 3, 8, len(cells)} {
			s = min(s, len(cells))
			runs := splitRuns(cells, c.n, s)
			for _, rings := range []int{0, 1, 2} {
				idx, own := partIndices(grid, runs, rings)
				for r, run := range runs {
					want, wantOwn := refPartIndices(grid, run, rings), 0
					for _, cell := range run {
						wantOwn += len(cell.Points)
					}
					if !slices.Equal(idx[r], want) || cap(idx[r]) != len(idx[r]) || own[r] != wantOwn {
						t.Fatalf("n %d dim %d s=%d rings %d part %d: %d indices (cap %d, own %d), want %d sorted (own %d)",
							c.n, c.dim, s, rings, r, len(idx[r]), cap(idx[r]), own[r], len(want), wantOwn)
					}
					if !slices.IsSorted(idx[r]) {
						t.Fatalf("n %d dim %d s=%d rings %d part %d: not ascending", c.n, c.dim, s, rings, r)
					}
				}
			}
		}
		parts, err := Partitioner{Shards: len(cells) + 5}.Partition(context.Background(), in, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != len(cells) {
			t.Fatalf("n %d: %d shards over %d cells gave %d parts", c.n, len(cells)+5, len(cells), len(parts))
		}
		for r, p := range parts {
			sub, err := in.Set.Subset(refPartIndices(grid, cells[r:r+1], 1))
			if err != nil {
				t.Fatal(err)
			}
			if p.Own != len(cells[r].Points) || !slices.Equal(p.In.Set.Coords(), sub.Coords()) {
				t.Fatalf("n %d: part %d of %d single-cell parts holds other points", c.n, r, len(parts))
			}
		}
	}
}
