package broadcast

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/reward"
	"repro/internal/vec"
)

// Catalog constrains broadcasting to a finite content library: the inner
// algorithm proposes ideal content vectors, and each proposal is snapped to
// the nearest unused catalog item under the snapping norm. Real stations
// cannot synthesize arbitrary content — they pick from what they have — so
// this models the gap between the paper's idealized continuous placement
// and a deployable system.
type Catalog struct {
	// Inner proposes ideal content positions.
	Inner core.Algorithm
	// Items is the available content library.
	Items []vec.V
	// Norm measures the snap distance (default 2-norm).
	Norm norm.Norm
}

// Name implements core.Algorithm.
func (c Catalog) Name() string {
	if c.Inner == nil {
		return "catalog"
	}
	return c.Inner.Name() + "+catalog"
}

// Run implements core.Algorithm: it commits the snapped items, in the
// order of the proposals they replace, through core.Placement. Each
// proposal is replaced by the nearest item not already chosen this run; an
// exhausted catalog is an error.
func (c Catalog) Run(ctx context.Context, in *reward.Instance, k int) (*core.Result, error) {
	return core.Placement{Label: c.Name(), Place: func(in *reward.Instance, k int) ([]vec.V, error) {
		return c.snap(ctx, in, k)
	}}.Run(ctx, in, k)
}

// snap runs Inner and replaces each proposed center by its nearest unused
// item.
func (c Catalog) snap(ctx context.Context, in *reward.Instance, k int) ([]vec.V, error) {
	if c.Inner == nil {
		return nil, errors.New("broadcast: catalog without an inner algorithm")
	}
	if len(c.Items) < k {
		return nil, fmt.Errorf("broadcast: catalog has %d items, need %d", len(c.Items), k)
	}
	nm := orL2(c.Norm)
	ideal, err := c.Inner.Run(ctx, in, k)
	if err != nil {
		return nil, err
	}
	used := make([]bool, len(c.Items))
	out := make([]vec.V, 0, len(ideal.Centers))
	for _, ctr := range ideal.Centers {
		best, bestD := -1, 0.0
		for i, item := range c.Items {
			if used[i] || item.Dim() != ctr.Dim() {
				continue
			}
			d := nm.Dist(ctr, item)
			if best == -1 || d < bestD {
				best, bestD = i, d
			}
		}
		if best == -1 {
			return nil, errors.New("broadcast: no dimension-compatible catalog item available")
		}
		used[best] = true
		out = append(out, c.Items[best])
	}
	return out, nil
}

var _ core.Algorithm = Catalog{}
