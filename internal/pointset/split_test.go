package pointset_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/pointset"
	"repro/internal/xrand"
)

// decoded is everything a decode returns, for comparing two decodes: the
// set's bits, the error text, and SplitMember's rest.
type decoded struct {
	set, err, rest string
}

func decodeAll(data []byte) (unmarshal, split decoded) {
	var s pointset.Set
	unmarshal.err = fmt.Sprint(s.UnmarshalJSON(data))
	if unmarshal.err == "<nil>" {
		unmarshal.set = setBits(&s)
	}
	set, rest, err := pointset.SplitMember(data, "instance")
	split.err, split.rest = fmt.Sprint(err), string(rest)
	if set != nil {
		split.set = setBits(set)
	}
	return unmarshal, split
}

// sameSet reports whether a and b hold the same dim and bit-identical
// coordinates and weights.
func sameSet(a, b *pointset.Set) bool {
	same := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	return a.Dim() == b.Dim() && same(a.Coords(), b.Coords()) && same(a.Weights(), b.Weights())
}

func setBits(s *pointset.Set) string {
	var b strings.Builder
	fmt.Fprintf(&b, "dim %d:", s.Dim())
	for _, x := range s.Coords() {
		fmt.Fprintf(&b, " %x", math.Float64bits(x))
	}
	b.WriteString("; weights:")
	for _, x := range s.Weights() {
		fmt.Fprintf(&b, " %x", math.Float64bits(x))
	}
	return b.String()
}

// splitSeeds are FuzzSplitScan's seed corpus: each way a cut can land away
// from a row boundary, row-length changes, type and syntax errors on either
// side of a cut, a repeated "points" key and the depth limit, bare and as
// the "instance" member SplitMember reads.
var splitSeeds = []string{
	`{"points":[[0,1],[2,3],[4,5],[6,7],[8,9],[10,11]],"weights":[1,2,3,4,5,6]}`,
	`{"points":[[1,2],["a],[b",3],[4,5],[6,7],[8,9]]}`,
	`{"points":[[1,2],[3,4],"],[",[5,6],[7,8]]}`,
	`{"points":[[[1],[2]],[3,4],[[5],[6],[7]],[8,9],[10,11]]}`,
	`{"points":[[1,2], [3,4],` + "\n" + `[5,6],	[7,8] ,[9,10],[11,12]]}`,
	`{"points":[[1,2],[3,4],[5],[6,7],[8,9],[10,11],[12]]}`,
	`{"points":[[1],[2],[3],[4],[5,6],[7],[8],[9]]}`,
	`{"points":[[1,2],"x",[3,4],[5,6],[7,8],null,[9,10],{"a":1},[1e999,1]]}`,
	`{"points":[[1,2],[3,4],[5,6],[7,8],[9,10],"x",[11,12]]}`,
	`{"points":[[1,2],[3,4],[5,6,],[7,8],[9,10]]}`,
	`{"points":[[1,2],[3,4],[5,6],[7,8],[9 10]]}`,
	`{"points":[[1,2],[3,4],[5,6],[7,8]`,
	`{"points":[[1,2],[3,4],[5,6],[7,8]],]}`,
	`{"points":[[1,2],[3,null],[5,6],[7,8]],"weights":[1,2,3,"4"]}`,
	`{"points":[[1,2],[3,4]],"points":[[5,6],[7,8],[9,10],[11,12]],"weights":[1,2,3,4]}`,
	`{"points":[[1,2],[3,4]],"x":[[5,6],[7,8],[9,10]],"weights":[1,2]}`,
	`{"points":[[1,2],[3,4]],"weights":[1,2],"x":[[5,6],[7,8],[9,10],[11,12]]}`,
	`{"points":[[1,2],[3,4],` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `,[5,6],[7,8]]}`,
	`{"points":[[1,2],[3,4],` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,[5,6],[7,8]]}`,
	`{"instance":{"points":[[1,2],[3,4],[5,6],[7,8],[9,10]],"weights":[1,1,1,1,1]},"k":2,"radius":1}`,
	`{"instance":{"points":[[1,2],[3,4],[5],[7,8],[9,10]]},"instance":{"points":[[1,2],"],[",[5,6]]}}`,
	`{"instance":{"points":[[1,2],[3,4],` + strings.Repeat("[", 9997) + strings.Repeat("]", 9997) + `,[5,6]]}}`,
	`{"instance":{"points":[[1,2],[3,4],` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `,[5,6]]}}`,
}

// FuzzSplitScan: a "points" array scanned in pieces of a few bytes decodes
// to what one scan gives, through UnmarshalJSON and SplitMember alike: the
// same set bits, the same error text and the same rest. Each input is
// decoded whole and then cut into up to 8 pieces of at least 1, 3 and 7
// bytes.
//
//	go test -run '^$' -fuzz '^FuzzSplitScan$' -fuzztime 20s ./internal/pointset
func FuzzSplitScan(f *testing.F) {
	for _, s := range splitSeeds {
		f.Add([]byte(s))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	f.Fuzz(func(t *testing.T, data []byte) {
		wantU, wantS := decodeAll(data)
		for _, size := range []int{1, 3, 7} {
			restore := pointset.SetMinPiece(size)
			gotU, gotS := decodeAll(data)
			restore()
			if gotU != wantU {
				t.Fatalf("UnmarshalJSON in pieces of %d+ bytes:\n got %+v\nwant %+v", size, gotU, wantU)
			}
			if gotS != wantS {
				t.Fatalf("SplitMember in pieces of %d+ bytes:\n got %+v\nwant %+v", size, gotS, wantS)
			}
		}
	})
}

// TestSplitScanLargeBody decodes a perfbench-shaped body (100,000 users in
// the paper's 2-D box, integer weights, as the "instance" of a /v1/solve
// request) in 1 to 8 pieces, through UnmarshalJSON and SplitMember, and
// requires the generated set's bits every time. Each piece grows its own
// chunks, so a split decode makes more allocations than one piece does
// (about 15 more per piece, against a few of noise from the runtime), which
// shows the split ran. testing.AllocsPerRun would count them at GOMAXPROCS
// 1, in one piece.
func TestSplitScanLargeBody(t *testing.T) {
	set, err := pointset.GenUniform(100_000, pointset.PaperBox2D(), pointset.RandomIntWeight, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	inst := set.AppendJSON(nil)
	body := append(append([]byte(`{"instance":`), inst...), `,"radius":0.0632,"norm":"l2","k":32}`...)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var oneAllocs uint64
	for p := 1; p <= 8; p++ {
		runtime.GOMAXPROCS(p)
		var got pointset.Set
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := got.UnmarshalJSON(inst); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		allocs := m1.Mallocs - m0.Mallocs
		if !sameSet(&got, set) {
			t.Fatalf("UnmarshalJSON in %d pieces: the bits differ from the set's", p)
		}
		if p == 1 {
			oneAllocs = allocs
		} else if allocs <= oneAllocs {
			t.Errorf("UnmarshalJSON in %d pieces made %d allocations, in one piece %d: the split did not run", p, allocs, oneAllocs)
		}
		split, rest, err := pointset.SplitMember(body, "instance")
		if err != nil {
			t.Fatal(err)
		}
		if !sameSet(split, set) {
			t.Fatalf("SplitMember in %d pieces: the bits differ from the set's", p)
		}
		if wantRest := `{"instance":null,"radius":0.0632,"norm":"l2","k":32}`; !bytes.Equal(rest, []byte(wantRest)) {
			t.Fatalf("SplitMember in %d pieces: rest %s, want %s", p, rest, wantRest)
		}
	}
}

// TestSplitScanErrorsAcrossPieces: in a body cut into 8 pieces, a row
// number in an error counts the rows of the pieces before it, and the first
// error in the body wins over a later piece's.
func TestSplitScanErrorsAcrossPieces(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	defer pointset.SetMinPiece(64)()
	rows := func(n int, edit func(i int) string) string {
		parts := make([]string, n)
		for i := range parts {
			if parts[i] = edit(i); parts[i] == "" {
				parts[i] = fmt.Sprintf("[%d,%d]", i, i+1)
			}
		}
		return `{"points":[` + strings.Join(parts, ",") + `]}`
	}
	cases := []struct {
		name, body, want string
	}{
		{"not an array", rows(1000, func(i int) string {
			if i == 900 {
				return `"x"`
			}
			return ""
		}), "pointset: decode: point 900 is not an array"},
		{"first type error wins", rows(1000, func(i int) string {
			switch i {
			case 700:
				return `[1,null]`
			case 900:
				return `true`
			}
			return ""
		}), "null coordinate at offset"},
		{"row length", rows(1000, func(i int) string {
			if i == 801 {
				return `[1,2,3]`
			}
			return ""
		}), "point 801 has dim 3, want 2"},
		{"syntax after a type error", rows(1000, func(i int) string {
			switch i {
			case 100:
				return `"x"`
			case 950:
				return `[1,2,]`
			}
			return ""
		}), "invalid character ']' looking for beginning of value"},
	}
	for _, tc := range cases {
		var got pointset.Set
		err := got.UnmarshalJSON([]byte(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want it to contain %q", tc.name, err, tc.want)
		}
		restore := pointset.SetMinPiece(1 << 30)
		var one pointset.Set
		oneErr := one.UnmarshalJSON([]byte(tc.body))
		restore()
		if fmt.Sprint(err) != fmt.Sprint(oneErr) {
			t.Errorf("%s: in pieces %v, in one scan %v", tc.name, err, oneErr)
		}
	}
}
