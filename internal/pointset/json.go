package pointset

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/vec"
)

// ErrDecode marks every error UnmarshalJSON returns: the value was valid
// JSON for the decoder around it but is not a valid set. Callers that map
// decode failures to wire errors (the serving layer) test for it with
// errors.Is to tell an invalid instance from a malformed request.
var ErrDecode = errors.New("pointset: decode")

// ErrDim marks a JSON-encoded set whose dimensions disagree — points of
// mixed lengths, or a "dim" field contradicting the rows. It wraps
// ErrDecode; callers test for it with errors.Is to distinguish a dimension
// mismatch from other invalid input.
var ErrDim = fmt.Errorf("%w: inconsistent dimensions", ErrDecode)

// setJSON is the wire form of a Set: row-major points plus parallel weights.
//
//	{"dim": 2, "points": [[0,1],[2,3]], "weights": [1, 5]}
//
// "dim" is redundant with the rows and optional on input; "weights" may be
// omitted for a unit-weight population. This one schema is shared by
// everything that moves point sets between processes — `cdtrace -format set`
// writes it and the cdserved /v1 endpoints read it — so instance parsing is
// implemented (and validated) exactly once, here.
type setJSON struct {
	Dim     int         `json:"dim"`
	Points  [][]float64 `json:"points"`
	Weights []float64   `json:"weights,omitempty"`
}

// MarshalJSON implements json.Marshaler: the set serializes as its points
// and weights with an explicit dim.
func (s *Set) MarshalJSON() ([]byte, error) {
	out := setJSON{Dim: s.dim, Points: make([][]float64, len(s.pts)), Weights: s.weights}
	for i, p := range s.pts {
		out.Points[i] = p
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler and is the wire boundary's
// validator: everything New checks, enforced here with decode-flavored
// errors, plus the wire-only holes New cannot see. A non-empty point list, a
// positive dimension (an empty row like [[]] must not produce a dim-0 set),
// consistent dimensions (ErrDim otherwise), a weight per point, finite
// coordinates, and non-negative finite weights. Note that standard JSON
// cannot carry NaN or infinity literals, so non-finite rejection guards
// against values like 1e999 that overflow to +Inf as well as future non-JSON
// decoders reusing this path.
func (s *Set) UnmarshalJSON(data []byte) error {
	var raw setJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("%w: %w", ErrDecode, err)
	}
	if len(raw.Points) == 0 {
		return fmt.Errorf("%w: no points", ErrDecode)
	}
	dim := raw.Dim
	if dim == 0 {
		dim = len(raw.Points[0])
	}
	if dim < 1 {
		return fmt.Errorf("%w: dim = %d, want >= 1", ErrDecode, dim)
	}
	for i, row := range raw.Points {
		if len(row) != dim {
			return fmt.Errorf("%w: point %d has dim %d, want %d", ErrDim, i, len(row), dim)
		}
		for j, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("%w: point %d coordinate %d = %v is not finite", ErrDecode, i, j, x)
			}
		}
	}
	weights := raw.Weights
	if weights == nil {
		weights = make([]float64, len(raw.Points))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(raw.Points) {
		return fmt.Errorf("%w: %d points but %d weights", ErrDecode, len(raw.Points), len(weights))
	}
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("%w: weight %d = %v, want finite and >= 0", ErrDecode, i, w)
		}
	}
	pts := make([]vec.V, len(raw.Points))
	for i, row := range raw.Points {
		pts[i] = vec.V(row)
	}
	dec, err := New(pts, weights)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrDecode, err)
	}
	*s = *dec
	return nil
}
