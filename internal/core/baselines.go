package core

import (
	"context"

	"repro/internal/reward"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// PlacementFunc produces k centers for an instance without consulting the
// reward structure round by round — the shape of non-greedy baselines such
// as clustering or random placement. Committing the centers in the order
// returned yields the per-round gains reported in the Result.
type PlacementFunc func(in *reward.Instance, k int) ([]vec.V, error)

// Placement adapts a PlacementFunc into an Algorithm so baselines run
// through the same harness, tie-break-free: gains are whatever the fixed
// placement earns.
type Placement struct {
	Label string
	Place PlacementFunc
}

// Name implements Algorithm.
func (p Placement) Name() string {
	if p.Label == "" {
		return "placement"
	}
	return p.Label
}

// Run implements Algorithm.
func (p Placement) Run(ctx context.Context, in *reward.Instance, k int) (*Result, error) {
	if err := checkArgs(in, k); err != nil {
		return nil, err
	}
	ctx = orBG(ctx)
	if err := ctx.Err(); err != nil {
		return &Result{Algorithm: p.Name()}, err
	}
	centers, err := p.Place(in, k)
	if err != nil {
		return nil, err
	}
	y := in.NewResiduals()
	res := &Result{Algorithm: p.Name()}
	for _, c := range centers {
		// The placement is already fixed, so committing a prefix of it on
		// cancellation keeps the anytime contract: each committed round's
		// gain is exact for that prefix.
		if err := ctx.Err(); err != nil {
			return res, err
		}
		gain := in.ApplyRound(c, y)
		res.Centers = append(res.Centers, c.Clone())
		res.Gains = append(res.Gains, gain)
		res.Total += gain
	}
	return res, nil
}

var _ Algorithm = Placement{}

// RandomPlacement is the weakest baseline: k centers drawn uniformly from
// the data's bounding box (expanded by nothing — contents outside the user
// region are never useful). Deterministic per seed.
func RandomPlacement(seed uint64) Placement {
	return Placement{
		Label: "random",
		Place: func(in *reward.Instance, k int) ([]vec.V, error) {
			rng := xrand.New(seed)
			lo, hi := in.Set.Bounds()
			centers := make([]vec.V, k)
			for j := range centers {
				c := vec.New(in.Set.Dim())
				for d := range c {
					c[d] = rng.Uniform(lo[d], hi[d])
				}
				centers[j] = c
			}
			return centers, nil
		},
	}
}
