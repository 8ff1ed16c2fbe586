package pointset_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/pointset"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// refSetJSON, refUnmarshal and refMarshal are the encoding/json-based codec
// the hand-written one replaced, kept as the oracle it is fuzzed against.
type refSetJSON struct {
	Dim     int         `json:"dim"`
	Points  [][]float64 `json:"points"`
	Weights []float64   `json:"weights,omitempty"`
}

func refUnmarshal(data []byte) (*pointset.Set, error) {
	var raw refSetJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%w: %w", pointset.ErrDecode, err)
	}
	if len(raw.Points) == 0 {
		return nil, fmt.Errorf("%w: no points", pointset.ErrDecode)
	}
	dim := raw.Dim
	if dim == 0 {
		dim = len(raw.Points[0])
	}
	if dim < 1 {
		return nil, fmt.Errorf("%w: dim = %d, want >= 1", pointset.ErrDecode, dim)
	}
	for i, row := range raw.Points {
		if len(row) != dim {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", pointset.ErrDim, i, len(row), dim)
		}
		for j, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("%w: point %d coordinate %d = %v is not finite", pointset.ErrDecode, i, j, x)
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
		return nil, fmt.Errorf("%w: %d points but %d weights", pointset.ErrDecode, len(raw.Points), len(weights))
	}
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("%w: weight %d = %v, want finite and >= 0", pointset.ErrDecode, i, w)
		}
	}
	pts := make([]vec.V, len(raw.Points))
	for i, row := range raw.Points {
		pts[i] = vec.V(row)
	}
	set, err := pointset.New(pts, weights)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", pointset.ErrDecode, err)
	}
	return set, nil
}

func refMarshal(s *pointset.Set) ([]byte, error) {
	out := refSetJSON{Dim: s.Dim(), Points: make([][]float64, s.Len()), Weights: s.Weights()}
	for i := range out.Points {
		out.Points[i] = s.Point(i)
	}
	return json.Marshal(out)
}

// errNull is what nullProbe reports for a JSON null.
var errNull = errors.New("null number")

type nullProbe struct{}

func (*nullProbe) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return errNull
	}
	return nil
}

// nullNumber reports whether data, read the way encoding/json reads a set,
// holds a null where a coordinate or weight belongs, in any "points" or
// "weights" member, kept or overwritten. That is the one input the codec
// rejects and the oracle read as 0.
func nullNumber(data []byte) bool {
	var probe struct {
		Points  [][]nullProbe `json:"points"`
		Weights []nullProbe   `json:"weights"`
	}
	return errors.Is(json.Unmarshal(data, &probe), errNull)
}

// errClass names an error by the sentinel it wraps.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, pointset.ErrDim):
		return "ErrDim"
	case errors.Is(err, pointset.ErrDecode):
		return "ErrDecode"
	}
	return "unclassified: " + err.Error()
}

// sameBits fails unless got and want hold bit-identical coordinates, per
// point and flat, and weights.
func sameBits(t *testing.T, got, want *pointset.Set) {
	t.Helper()
	if got.Len() != want.Len() || got.Dim() != want.Dim() {
		t.Fatalf("got %dx%d, want %dx%d", got.Len(), got.Dim(), want.Len(), want.Dim())
	}
	bits := func(xs []float64) string {
		var b strings.Builder
		for _, x := range xs {
			fmt.Fprintf(&b, "%x,", math.Float64bits(x))
		}
		return b.String()
	}
	if bits(got.Coords()) != bits(want.Coords()) {
		t.Fatalf("coords differ: %v vs %v", got.Coords(), want.Coords())
	}
	if bits(got.Weights()) != bits(want.Weights()) {
		t.Fatalf("weights differ: %v vs %v", got.Weights(), want.Weights())
	}
	for i := 0; i < got.Len(); i++ {
		if bits(got.Point(i)) != bits(want.Coords()[i*want.Dim():(i+1)*want.Dim()]) {
			t.Fatalf("point %d = %v, want %v", i, got.Point(i), want.Point(i))
		}
	}
}

// codecSeeds are FuzzSetCodec's seed corpus: the schema's corners, each
// error class, the key-matching rules, the null tightening, and numbers at
// the float64 conversion's edges.
var codecSeeds = []string{
	`{"dim":2,"points":[[0,1],[2.5,3.5],[4,0]],"weights":[1,5,2]}`,
	`{"points":[[0,0],[1,1]]}`,
	` { "points" : [ [ -0 , 1e-7 ] , [ 1E+21 , -1.5e300 ] ] , "weights" : [ 0 , 0.1 ] } `,
	`{"points":[[123456789012345678901234567890,4.9e-324,2.2250738585072014e-308]]}`,
	`{"points":[[-0,1e-400,4.9e-324],[2.2250738585072011e-308,1.7976931348623158e308,9007199254740993],[1e23,-1.23456789012345678901234567890e-300,0.000000000000000000000000000001]]}`,
	`{"points":[[1.7976931348623159e308,0]]}`,
	`{"points":[[0],[1]],"weights":[1.7976931348623157e308,1.7976931348623157e308]}`,
	`{"POINTS":[[1,2]],"Weights":[3],"DIM":2}`,
	`{"pointſ":[[1,2]]}`,
	`{"\u0070oints":[[1,2]],"w\u0065ights":[7]}`,
	`{"points":[[1,2]],"points":[[3,4],[5,6]],"weights":[1],"weights":null}`,
	`{"dim":3,"dim":null,"points":[[1,2]]}`,
	`{"extra":{"a":[1,{"b":null}],"c":"\"\\\/\b\f\n\r\t\u00e9"},"points":[[1]]}`,
	`{"points":[[1,2],[3]]}`,
	`{"dim":3,"points":[[1,2]]}`,
	`{"dim":2.0,"points":[[1,2]]}`,
	`{"dim":"2","points":[[1,2],[3]]}`,
	`{"points":[[1e999],[1,2]]}`,
	`{"points":[[1,2]],"weights":[-1]}`,
	`{"points":[[1,2]],"weights":[-0]}`,
	`{"points":[[1,2]],"weights":[1,2]}`,
	`{"points":[]}`,
	`{"points":null}`,
	`{"points":[[],[]],"dim":0}`,
	`{"points":[null,[1]]}`,
	`{"points":[[1,"2"]]}`,
	`{"points":{"0":[1]}}`,
	`[[0,0]]`,
	`null`,
	`{"points":[[null,1],[2,2]]}`,
	`{"points":[[0,0],[1,1]],"weights":[null,3]}`,
	`{"points":[[1,2]],"points":[[null,5]]}`,
	`{"points":[[1,2]]} x`,
	`{"points":[[1,2],]}`,
	`{"points":[[01]]}`,
	`{"points":[[1.]]}`,
	`{"points":[[+1]]}`,
	`{"points":[[.5]]}`,
	`{"points":[[0x1p3]]}`,
	`{"points":[[Inf]]}`,
	`{"points":[[1]],"x":"` + "\x01" + `"}`,
	`{"points":[[1]],"x":"\u12"}`,
	`{"points":[[1]],"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
	`{"points":[[1]],"x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}`,
	``,
}

// FuzzSetCodec fuzzes the hand-written codec against the encoding/json
// oracle: the same inputs are accepted, rejections have the same class
// (ErrDim, or ErrDecode alone), and accepted sets are bit-identical. The one
// allowed difference is a null where a number belongs, which the codec
// rejects as ErrDecode. Encoding is byte-identical to the oracle's, and
// decoding it returns the same bits.
//
//	go test -run '^$' -fuzz '^FuzzSetCodec$' -fuzztime 20s ./internal/pointset
func FuzzSetCodec(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got pointset.Set
		err := got.UnmarshalJSON(data)
		if nullNumber(data) {
			if errClass(err) != "ErrDecode" {
				t.Fatalf("null number: error class %s (%v), want ErrDecode", errClass(err), err)
			}
			return
		}
		want, wantErr := refUnmarshal(data)
		if errClass(err) != errClass(wantErr) {
			t.Fatalf("error class %s (%v), oracle %s (%v)", errClass(err), err, errClass(wantErr), wantErr)
		}
		if err != nil {
			if !strings.Contains(err.Error(), "pointset") {
				t.Fatalf("error %q does not identify the package", err)
			}
			return
		}
		sameBits(t, &got, want)

		enc, err := got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refMarshal(&got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("encoding differs from the oracle's:\n%s\n%s", enc, ref)
		}
		var back pointset.Set
		if err := back.UnmarshalJSON(enc); err != nil {
			t.Fatalf("own encoding does not decode: %v", err)
		}
		sameBits(t, &back, &got)
	})
}

// TestSetJSONEncodesLikeEncodingJSON pins the float format at encoding/json's
// cutoffs on random sets, where the fuzzer's inputs are rarely exact.
func TestSetJSONEncodesLikeEncodingJSON(t *testing.T) {
	rng := xrand.New(7)
	specials := []float64{0, math.Copysign(0, -1), 1e-6, 9.999999999999999e-7, 1e-7, 1e21, 9.99999999999999e20,
		1e-300, 5e-324, math.MaxFloat64, -math.MaxFloat64, 123456789, 0.1, 1.0 / 3}
	pts := make([]vec.V, 0, 200)
	for _, x := range specials {
		pts = append(pts, vec.Of(x, -x, x/7))
	}
	for len(pts) < cap(pts) {
		e := math.Pow(10, float64(rng.IntRange(-30, 30)))
		pts = append(pts, vec.Of(rng.Uniform(-4, 4)*e, rng.NormFloat64(), rng.Uniform(0, 1)*e))
	}
	ws := make([]float64, len(pts))
	for i := range ws {
		ws[i] = math.Abs(pts[i][0])
		if pts[i][0] == -math.MaxFloat64 {
			ws[i] = 0 // a second weight of MaxFloat64 would sum past float64, which New rejects
		}
	}
	set, err := pointset.New(pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refMarshal(set)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding differs:\n%s\n%s", got, want)
	}
	var back pointset.Set
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	sameBits(t, &back, set)
}

// TestUnmarshalJSONAllocs guards the codec's shape: a few dozen allocations
// per set (chunks of up to 16,384 values), not a few per point as a
// row-per-point decode makes.
func TestUnmarshalJSONAllocs(t *testing.T) {
	set, err := pointset.GenUniform(10_000, pointset.PaperBox2D(), pointset.RandomIntWeight, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		var s pointset.Set
		if err := s.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 64 {
		t.Fatalf("UnmarshalJSON of n = 10,000 made %.0f allocations, want < 64", allocs)
	}
}

// TestUnmarshalJSONBytesSteady: decoding a body allocates the same bytes
// right after two collections as on a warm heap. Scratch space kept in a
// cache the collector empties (a sync.Pool) would make a request's cost
// depend on when the last collection ran; with one, the decode after a
// collection allocated 2.6 times the warm decode's bytes. Each side is the
// least of three decodes, which leaves out the odd few kilobytes the
// runtime or the test framework allocate meanwhile.
func TestUnmarshalJSONBytesSteady(t *testing.T) {
	set, err := pointset.GenUniform(10_000, pointset.PaperBox2D(), pointset.RandomIntWeight, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	decodeBytes := func(collect bool) int64 {
		least := int64(math.MaxInt64)
		for range 3 {
			var s pointset.Set
			if err := s.UnmarshalJSON(data); err != nil {
				t.Fatal(err)
			}
			if collect {
				runtime.GC()
				runtime.GC()
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := s.UnmarshalJSON(data); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			least = min(least, int64(m1.TotalAlloc-m0.TotalAlloc))
		}
		return least
	}
	warm, cold := decodeBytes(false), decodeBytes(true)
	if d := cold - warm; d < -warm/100 || d > warm/100 {
		t.Fatalf("decode allocated %d bytes after a collection and %d warm, want equal within 1%%", cold, warm)
	}
}

// TestSetCodecLargeMatchesOracle decodes sets big enough that the codec's
// chunks reach their largest size and 3-D rows straddle chunk boundaries;
// the fuzzer's inputs rarely hold more than one chunk. The result must be
// bit-identical to the oracle's.
func TestSetCodecLargeMatchesOracle(t *testing.T) {
	for _, box := range []pointset.Box{pointset.PaperBox2D(), pointset.PaperBox3D()} {
		set, err := pointset.GenUniform(20_000, box, pointset.RandomIntWeight, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		data, err := set.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var got pointset.Set
		if err := got.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		want, err := refUnmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, &got, want)
		sameBits(t, &got, set)
	}
}
