package trace

import (
	"fmt"

	"repro/internal/xrand"
)

// Sample returns a new trace with n users drawn uniformly without
// replacement. It returns an error when n is out of range.
func (tr *Trace) Sample(n int, rng *xrand.Rand) (*Trace, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 || n > len(tr.Users) {
		return nil, fmt.Errorf("trace: sample size %d out of range [1, %d]", n, len(tr.Users))
	}
	perm := rng.Perm(len(tr.Users))
	out := &Trace{Dim: tr.Dim, Lo: append([]float64{}, tr.Lo...), Hi: append([]float64{}, tr.Hi...)}
	for _, i := range perm[:n] {
		u := tr.Users[i]
		out.Users = append(out.Users, User{
			ID:       u.ID,
			Interest: append([]float64{}, u.Interest...),
			Weight:   u.Weight,
		})
	}
	return out, nil
}

// TotalWeight returns Σ w over the population.
func (tr *Trace) TotalWeight() float64 {
	var t float64
	for _, u := range tr.Users {
		t += u.Weight
	}
	return t
}
