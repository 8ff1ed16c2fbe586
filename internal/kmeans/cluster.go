// Package kmeans implements weighted k-means (Lloyd's algorithm with
// k-means++ seeding) and its 1-norm sibling k-medians over interest points.
// Clustering is the natural non-submodular baseline for content placement:
// put the k contents at cluster centers of the user population and see how
// much the paper's reward-aware greedy algorithms gain over it (the
// "baselines" experiment).
//
// Formerly internal/cluster; renamed so the clustering baseline cannot be
// confused with internal/clusterd, the multi-node serving layer.
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// Result is a clustering outcome.
type Result struct {
	Centers []vec.V
	// Assign maps each point index to its cluster.
	Assign []int
	// Cost is the weighted sum of point-to-center distances (the k-median
	// objective) or squared distances (k-means), per the norm used.
	Cost float64
	// Iters is the number of Lloyd iterations performed.
	Iters int
}

// Options tunes the clustering.
type Options struct {
	// MaxIters bounds Lloyd iterations (default 50).
	MaxIters int
	// Norm selects the geometry: L2 gives k-means (mean centers, squared
	// distance cost), L1 gives k-medians (per-dimension weighted medians,
	// absolute distance cost). Others fall back to mean centers with
	// absolute cost. Default L2.
	Norm norm.Norm
}

// KMeans clusters the weighted point set into k groups. It is deterministic
// for a fixed rng state.
func KMeans(set *pointset.Set, k int, opt Options, rng *xrand.Rand) (*Result, error) {
	if set == nil {
		return nil, errors.New("kmeans: nil point set")
	}
	if k <= 0 {
		return nil, fmt.Errorf("kmeans: k = %d must be positive", k)
	}
	if k > set.Len() {
		return nil, fmt.Errorf("kmeans: k = %d exceeds %d points", k, set.Len())
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	nm := opt.Norm
	if nm == nil {
		nm = norm.L2{}
	}
	maxIters := opt.MaxIters
	if maxIters <= 0 {
		maxIters = 50
	}
	l1Mode := nm.P() == 1

	centers := seedPlusPlus(set, k, nm, rng)
	assign := make([]int, set.Len())
	res := &Result{}
	for iter := 0; iter < maxIters; iter++ {
		changed := reassign(set, centers, nm, assign)
		recenter(set, centers, assign, l1Mode, rng)
		res.Iters = iter + 1
		if !changed && iter > 0 {
			break
		}
	}
	reassign(set, centers, nm, assign)
	res.Centers = centers
	res.Assign = assign
	res.Cost = cost(set, centers, assign, nm)
	return res, nil
}

// seedPlusPlus picks k initial centers with probability proportional to the
// weighted (squared for L2) distance to the nearest already-chosen center.
func seedPlusPlus(set *pointset.Set, k int, nm norm.Norm, rng *xrand.Rand) []vec.V {
	n := set.Len()
	centers := make([]vec.V, 0, k)
	first := rng.Intn(n)
	centers = append(centers, set.Point(first).Clone())
	d2 := make([]float64, n)
	for len(centers) < k {
		var sum float64
		for i := 0; i < n; i++ {
			best := math.Inf(1)
			for _, c := range centers {
				if d := nm.Dist(c, set.Point(i)); d < best {
					best = d
				}
			}
			if nm.P() == 2 {
				best *= best
			}
			d2[i] = set.Weight(i) * best
			sum += d2[i]
		}
		if sum == 0 {
			// All remaining mass sits on existing centers; duplicate one.
			centers = append(centers, centers[len(centers)%len(centers)].Clone())
			continue
		}
		u := rng.Float64() * sum
		pick := n - 1
		var acc float64
		for i := 0; i < n; i++ {
			acc += d2[i]
			if u < acc {
				pick = i
				break
			}
		}
		centers = append(centers, set.Point(pick).Clone())
	}
	return centers
}

// reassign maps each point to its nearest center (ties to the lower cluster
// index) and reports whether any assignment changed.
func reassign(set *pointset.Set, centers []vec.V, nm norm.Norm, assign []int) bool {
	changed := false
	for i := 0; i < set.Len(); i++ {
		best, bestD := 0, nm.Dist(centers[0], set.Point(i))
		for c := 1; c < len(centers); c++ {
			if d := nm.Dist(centers[c], set.Point(i)); d < bestD {
				best, bestD = c, d
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

// recenter updates each center to the weighted mean (or per-dimension
// weighted median in L1 mode) of its members; empty clusters are reseeded at
// the globally farthest point from any center.
func recenter(set *pointset.Set, centers []vec.V, assign []int, l1Mode bool, rng *xrand.Rand) {
	dim := set.Dim()
	for c := range centers {
		var members []int
		for i, a := range assign {
			if a == c {
				members = append(members, i)
			}
		}
		if len(members) == 0 {
			centers[c] = farthestPoint(set, centers).Clone()
			continue
		}
		nc := vec.New(dim)
		if l1Mode {
			for d := 0; d < dim; d++ {
				nc[d] = weightedMedian(set, members, d)
			}
		} else {
			var wsum float64
			for _, i := range members {
				w := set.Weight(i)
				wsum += w
				nc.AddInPlace(set.Point(i).Scale(w))
			}
			if wsum == 0 {
				// Zero-weight cluster: plain centroid.
				for _, i := range members {
					nc.AddInPlace(set.Point(i))
				}
				nc.ScaleInPlace(1 / float64(len(members)))
			} else {
				nc.ScaleInPlace(1 / wsum)
			}
		}
		centers[c] = nc
	}
}

// weightedMedian returns the weighted median of coordinate d over members.
func weightedMedian(set *pointset.Set, members []int, d int) float64 {
	type wx struct {
		x, w float64
	}
	vals := make([]wx, len(members))
	var total float64
	for j, i := range members {
		vals[j] = wx{x: set.Point(i)[d], w: set.Weight(i)}
		total += set.Weight(i)
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a].x < vals[b].x })
	if total == 0 {
		return vals[len(vals)/2].x
	}
	var acc float64
	for _, v := range vals {
		acc += v.w
		if acc >= total/2 {
			return v.x
		}
	}
	return vals[len(vals)-1].x
}

// farthestPoint returns the point maximizing distance to its nearest center.
func farthestPoint(set *pointset.Set, centers []vec.V) vec.V {
	l2 := norm.L2{}
	best, bestD := 0, -1.0
	for i := 0; i < set.Len(); i++ {
		near := math.Inf(1)
		for _, c := range centers {
			if d := l2.Dist(c, set.Point(i)); d < near {
				near = d
			}
		}
		if near > bestD {
			best, bestD = i, near
		}
	}
	return set.Point(best)
}

// cost evaluates the clustering objective for the given assignment.
func cost(set *pointset.Set, centers []vec.V, assign []int, nm norm.Norm) float64 {
	var total float64
	for i := 0; i < set.Len(); i++ {
		d := nm.Dist(centers[assign[i]], set.Point(i))
		if nm.P() == 2 {
			d *= d
		}
		total += set.Weight(i) * d
	}
	return total
}
