package reward

import (
	"errors"
	"fmt"

	"repro/internal/vec"
)

// Evaluator maintains the per-point coverage-fraction sums for a working
// center set so that the objective can be re-read in O(n) after any single
// center is replaced, instead of recomputing all k distances per point.
// SwapLocalSearch uses it to test k·n candidate swaps per pass in
// O(k·n·n) total rather than O(k·n·n·k).
//
// Every fraction sum is the slot-ordered IEEE sum of its coverage row
// entries, as in a freshly built evaluator, until Replace's incremental
// `frac += new − old` updates drift from it; Resync restores the sums.
type Evaluator struct {
	in      *Instance
	centers []vec.V
	cov     [][]float64 // cov[j][i]: coverage of point i by center j
	frac    []float64   // Σ_j cov[j][i]
}

// NewEvaluator builds an evaluator over an initial center set (centers are
// copied).
func NewEvaluator(in *Instance, centers []vec.V) (*Evaluator, error) {
	if in == nil {
		return nil, errors.New("reward: nil instance")
	}
	e := &Evaluator{in: in, frac: make([]float64, in.N())}
	for _, c := range centers {
		if err := e.Add(c); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// K reports the current number of centers.
func (e *Evaluator) K() int { return len(e.centers) }

// Centers returns copies of the current centers.
func (e *Evaluator) Centers() []vec.V {
	out := make([]vec.V, len(e.centers))
	for i, c := range e.centers {
		out[i] = c.Clone()
	}
	return out
}

// Add appends a center, updating the fraction sums in O(n).
func (e *Evaluator) Add(c vec.V) error {
	if c.Dim() != e.in.Set.Dim() {
		return fmt.Errorf("reward: center dim %d != instance dim %d", c.Dim(), e.in.Set.Dim())
	}
	row := make([]float64, e.in.N())
	e.in.batchCoverages(c, row)
	for i := range row {
		e.frac[i] += row[i]
	}
	e.centers = append(e.centers, c.Clone())
	e.cov = append(e.cov, row)
	return nil
}

// Replace swaps the center at slot j for c in O(n). It returns an error for
// an out-of-range slot or dimension mismatch.
func (e *Evaluator) Replace(j int, c vec.V) error {
	if j < 0 || j >= len(e.centers) {
		return fmt.Errorf("reward: slot %d out of range [0, %d)", j, len(e.centers))
	}
	if c.Dim() != e.in.Set.Dim() {
		return fmt.Errorf("reward: center dim %d != instance dim %d", c.Dim(), e.in.Set.Dim())
	}
	old := e.cov[j]
	sc := scratchPool.Get().(*scratch)
	sc.a = take(sc.a, len(old))
	e.in.batchCoverages(c, sc.a)
	for i, nc := range sc.a {
		e.frac[i] += nc - old[i]
		old[i] = nc
	}
	scratchPool.Put(sc)
	e.centers[j] = c.Clone()
	return nil
}

// Resync recomputes every fraction sum from the stored coverage rows,
// discarding the IEEE rounding error that Replace's incremental
// `frac += new − old` updates accumulate. After thousands of replaces that
// drift can grow large enough for Objective to disagree with a from-scratch
// evaluation, making swap search accept or reject on noise; a Resync every
// O(n) replaces keeps the drift below any decision threshold at amortized
// O(k) per replace. The recomputation adds rows in slot order, matching a
// freshly built evaluator bit for bit.
func (e *Evaluator) Resync() {
	for i := range e.frac {
		e.frac[i] = 0
	}
	for _, row := range e.cov {
		for i, v := range row {
			e.frac[i] += v
		}
	}
}

// Objective reads f(C) for the current centers in O(n).
func (e *Evaluator) Objective() float64 {
	var total float64
	for i, f := range e.frac {
		if f > 1 {
			f = 1
		}
		total += e.in.Set.Weight(i) * f
	}
	return total
}

// ObjectiveIfReplaced evaluates the objective with slot j hypothetically
// replaced by c, without committing, in O(n).
func (e *Evaluator) ObjectiveIfReplaced(j int, c vec.V) (float64, error) {
	if j < 0 || j >= len(e.centers) {
		return 0, fmt.Errorf("reward: slot %d out of range [0, %d)", j, len(e.centers))
	}
	if c.Dim() != e.in.Set.Dim() {
		return 0, fmt.Errorf("reward: center dim %d != instance dim %d", c.Dim(), e.in.Set.Dim())
	}
	old := e.cov[j]
	w := e.in.Set.Weights()
	var total float64
	sc := scratchPool.Get().(*scratch)
	sc.a = take(sc.a, len(old))
	e.in.batchCoverages(c, sc.a)
	for i, nc := range sc.a {
		f := e.frac[i] - old[i] + nc
		if f > 1 {
			f = 1
		}
		total += w[i] * f
	}
	scratchPool.Put(sc)
	return total, nil
}
