package pointset_test

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/pointset"
	"repro/internal/vec"
)

func TestSetJSONRoundTrip(t *testing.T) {
	set, err := pointset.New(
		[]vec.V{vec.Of(0, 1), vec.Of(2.5, 3.5), vec.Of(4, 0)},
		[]float64{1, 5, 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	var back pointset.Set
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != set.Len() || back.Dim() != set.Dim() {
		t.Fatalf("round trip: %dx%d != %dx%d", back.Len(), back.Dim(), set.Len(), set.Dim())
	}
	for i := 0; i < set.Len(); i++ {
		if back.Weight(i) != set.Weight(i) {
			t.Errorf("weight %d: %v != %v", i, back.Weight(i), set.Weight(i))
		}
		for d := 0; d < set.Dim(); d++ {
			if back.Point(i)[d] != set.Point(i)[d] {
				t.Errorf("point %d dim %d: %v != %v", i, d, back.Point(i)[d], set.Point(i)[d])
			}
		}
	}
	// The flat row-major view must be rebuilt too, bit-identical.
	for i, x := range set.Coords() {
		if back.Coords()[i] != x {
			t.Fatalf("coords[%d]: %v != %v", i, back.Coords()[i], x)
		}
	}
}

func TestSetJSONDefaultsToUnitWeights(t *testing.T) {
	var s pointset.Set
	if err := json.Unmarshal([]byte(`{"points":[[0,0],[1,1]]}`), &s); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Weight(0) != 1 || s.Weight(1) != 1 {
		t.Fatalf("unit-weight default broken: %d points, weights %v %v", s.Len(), s.Weight(0), s.Weight(1))
	}
}

func TestSetJSONRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, in string
		wantDim  bool
	}{
		{"empty points", `{"points":[]}`, false},
		{"no points field", `{}`, false},
		{"mixed dims", `{"points":[[0,0],[1]]}`, true},
		{"dim contradicts rows", `{"dim":3,"points":[[0,0]]}`, true},
		{"weight count mismatch", `{"points":[[0,0]],"weights":[1,2]}`, false},
		{"negative weight", `{"points":[[0,0]],"weights":[-1]}`, false},
		{"overflowing coordinate", `{"points":[[1e999,0]]}`, false},
		{"overflowing negative coordinate", `{"points":[[-1e999,0]]}`, false},
		{"overflowing weight", `{"points":[[0,0]],"weights":[1e999]}`, false},
		// Each weight is finite, but max_reward, their sum, is +Inf.
		{"weights summing past float64", `{"points":[[0,0],[1,1]],"weights":[1e308,1e308]}`, false},
		{"empty point row", `{"points":[[]]}`, false},
		{"all empty rows with dim", `{"dim":0,"points":[[],[]]}`, false},
		{"negative dim", `{"dim":-2,"points":[[0,0]]}`, false},
		{"not an object", `[[0,0]]`, false},
		// encoding/json read a null number as 0; JSON.stringify writes
		// NaN and ±Infinity as null.
		{"null coordinate", `{"points":[[null,1],[2,2]]}`, false},
		{"null weight", `{"points":[[0,0],[1,1]],"weights":[null,3]}`, false},
		{"null in a repeated points key", `{"points":[[1,2]],"points":[[null,5]]}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s pointset.Set
			err := json.Unmarshal([]byte(tc.in), &s)
			if err == nil {
				t.Fatalf("decoded invalid input %s", tc.in)
			}
			if got := errors.Is(err, pointset.ErrDim); got != tc.wantDim {
				t.Errorf("errors.Is(err, ErrDim) = %v, want %v (err: %v)", got, tc.wantDim, err)
			}
			if !errors.Is(err, pointset.ErrDecode) {
				t.Errorf("error %q does not wrap ErrDecode", err)
			}
			if !strings.Contains(err.Error(), "pointset") {
				t.Errorf("error %q does not identify the package", err)
			}
		})
	}
}
