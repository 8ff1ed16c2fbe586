package kmeans

import (
	"math"
	"testing"

	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func twoBlobs(t *testing.T) *pointset.Set {
	t.Helper()
	var pts []vec.V
	rng := xrand.New(5)
	for i := 0; i < 20; i++ {
		pts = append(pts, vec.Of(0.5+0.1*rng.NormFloat64(), 0.5+0.1*rng.NormFloat64()))
	}
	for i := 0; i < 20; i++ {
		pts = append(pts, vec.Of(3.5+0.1*rng.NormFloat64(), 3.5+0.1*rng.NormFloat64()))
	}
	set, err := pointset.UnitWeights(pts)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestKMeansValidation(t *testing.T) {
	set := twoBlobs(t)
	if _, err := KMeans(nil, 2, Options{}, xrand.New(1)); err == nil {
		t.Error("nil set accepted")
	}
	if _, err := KMeans(set, 0, Options{}, xrand.New(1)); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMeans(set, set.Len()+1, Options{}, xrand.New(1)); err == nil {
		t.Error("k > n accepted")
	}
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	set := twoBlobs(t)
	res, err := KMeans(set, 2, Options{}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 2 || len(res.Assign) != set.Len() {
		t.Fatalf("shape wrong: %d centers, %d assigns", len(res.Centers), len(res.Assign))
	}
	// One center near each blob.
	foundA, foundB := false, false
	for _, c := range res.Centers {
		if c.Dist2(vec.Of(0.5, 0.5)) < 0.3 {
			foundA = true
		}
		if c.Dist2(vec.Of(3.5, 3.5)) < 0.3 {
			foundB = true
		}
	}
	if !foundA || !foundB {
		t.Fatalf("centers missed blobs: %v", res.Centers)
	}
	// Cluster members agree with blob membership.
	if res.Assign[0] == res.Assign[20] {
		t.Error("points from different blobs share a cluster")
	}
	if res.Cost <= 0 {
		t.Errorf("cost = %v", res.Cost)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	set := twoBlobs(t)
	a, err := KMeans(set, 3, Options{}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(set, 3, Options{}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Fatalf("same seed different cost: %v vs %v", a.Cost, b.Cost)
	}
	for i := range a.Centers {
		if !a.Centers[i].Equal(b.Centers[i]) {
			t.Fatal("same seed different centers")
		}
	}
}

func TestKMeansMoreClustersNeverWorse(t *testing.T) {
	set := twoBlobs(t)
	prev := math.Inf(1)
	for k := 1; k <= 5; k++ {
		// Best of a few seeds to smooth out k-means++ randomness.
		best := math.Inf(1)
		for s := uint64(0); s < 5; s++ {
			res, err := KMeans(set, k, Options{}, xrand.New(100+s))
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost < best {
				best = res.Cost
			}
		}
		if best > prev*1.05+1e-9 {
			t.Fatalf("k=%d cost %v worse than k-1 cost %v", k, best, prev)
		}
		prev = best
	}
}

func TestKMediansUsesMedian(t *testing.T) {
	// Outlier-heavy 1-D-like data: the L1 center must sit at the weighted
	// median, not be dragged to the mean by the outlier.
	pts := []vec.V{vec.Of(0, 0), vec.Of(0.1, 0), vec.Of(0.2, 0), vec.Of(10, 0)}
	set, err := pointset.UnitWeights(pts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := KMeans(set, 1, Options{Norm: norm.L1{}}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Centers[0][0] > 1 {
		t.Fatalf("L1 center dragged to %v; median expected near 0.1", res.Centers[0])
	}
	// The L2 mean sits at 2.575 — verify the contrast.
	resMean, err := KMeans(set, 1, Options{}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if resMean.Centers[0][0] < 1 {
		t.Fatalf("L2 center = %v; mean expected near 2.575", resMean.Centers[0])
	}
}

func TestKMeansWeightsMatter(t *testing.T) {
	// Two points, one heavy: the single k-means center must sit closer to
	// the heavy point.
	pts := []vec.V{vec.Of(0, 0), vec.Of(1, 0)}
	set, err := pointset.New(pts, []float64{9, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := KMeans(set, 1, Options{}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centers[0][0]-0.1) > 1e-9 {
		t.Fatalf("weighted mean = %v, want 0.1", res.Centers[0][0])
	}
}

func TestKMeansEmptyClusterReseeds(t *testing.T) {
	// k = 3 over 2 coincident groups: at least one cluster starts or goes
	// empty during Lloyd iterations and must be reseeded at the farthest
	// point rather than crash or stay empty.
	pts := []vec.V{
		vec.Of(0, 0), vec.Of(0, 0), vec.Of(0, 0),
		vec.Of(4, 4), vec.Of(4, 4),
	}
	set, err := pointset.UnitWeights(pts)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 10; seed++ {
		res, err := KMeans(set, 3, Options{}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Centers) != 3 {
			t.Fatalf("seed %d: %d centers", seed, len(res.Centers))
		}
		// Cost must be essentially zero: centers can sit on both groups.
		if res.Cost > 1e-9 {
			t.Fatalf("seed %d: cost %v", seed, res.Cost)
		}
	}
}

func TestKMediansZeroWeightMembers(t *testing.T) {
	// Zero-weight points must not break the weighted median or mean.
	pts := []vec.V{vec.Of(0, 0), vec.Of(1, 0), vec.Of(2, 0)}
	set, err := pointset.New(pts, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{{}, {Norm: norm.L1{}}} {
		res, err := KMeans(set, 1, opt, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Centers) != 1 || !res.Centers[0].IsFinite() {
			t.Fatalf("degenerate weights broke clustering: %+v", res)
		}
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	set := twoBlobs(t)
	res, err := KMeans(set, set.Len(), Options{}, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 1e-6 {
		t.Fatalf("k=n cost = %v, want ~0", res.Cost)
	}
}
