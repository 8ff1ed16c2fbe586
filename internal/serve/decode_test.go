package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	v1 "repro/api/v1"
	"repro/internal/pointset"
	"repro/internal/serve"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// refSet decodes an instance the way the server did before its one-pass
// codec: encoding/json reflects the rows, the same checks run in the same
// order, and pointset.New builds the set.
type refSet struct{ set *pointset.Set }

func (r *refSet) UnmarshalJSON(data []byte) error {
	var raw struct {
		Dim     int         `json:"dim"`
		Points  [][]float64 `json:"points"`
		Weights []float64   `json:"weights"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("%w: %w", pointset.ErrDecode, err)
	}
	if len(raw.Points) == 0 {
		return fmt.Errorf("%w: no points", pointset.ErrDecode)
	}
	dim := raw.Dim
	if dim == 0 {
		dim = len(raw.Points[0])
	}
	if dim < 1 {
		return fmt.Errorf("%w: dim = %d", pointset.ErrDecode, dim)
	}
	pts := make([]vec.V, len(raw.Points))
	for i, row := range raw.Points {
		if len(row) != dim {
			return fmt.Errorf("%w: point %d", pointset.ErrDim, i)
		}
		pts[i] = row
	}
	ws := raw.Weights
	if ws == nil {
		ws = make([]float64, len(pts))
		for i := range ws {
			ws[i] = 1
		}
	}
	// New rejects a weight-count mismatch and negative weights.
	set, err := pointset.New(pts, ws)
	if err != nil {
		return fmt.Errorf("%w: %w", pointset.ErrDecode, err)
	}
	r.set = set
	return nil
}

// refSolve and refChurn are the v1 requests with the instance decoded by
// refSet.
type refSolve struct {
	v1.SolveRequest
	Instance *refSet `json:"instance"`
}

type refChurn struct {
	v1.ChurnRequest
	Instance *refSet `json:"instance"`
}

// refDecode is the body path the server replaced: one strict encoding/json
// decode of the whole body.
func refDecode(body []byte, dst any) string {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	switch {
	case err == nil:
		return ""
	case errors.Is(err, pointset.ErrDim):
		return v1.CodeDimMismatch
	case errors.Is(err, pointset.ErrDecode):
		return v1.CodeBadInstance
	}
	return v1.CodeBadJSON
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

// nullNumber reports whether body holds a null where an instance
// coordinate or weight belongs: the reference path read it as 0, the
// server rejects it.
func nullNumber(body []byte) bool {
	var probe struct {
		Instance *struct {
			Points  [][]nullProbe `json:"points"`
			Weights []nullProbe   `json:"weights"`
		} `json:"instance"`
	}
	return errors.Is(json.NewDecoder(bytes.NewReader(body)).Decode(&probe), errNull)
}

// checkDecodeBody decodes body as a solve and as a churn request, through
// the server's body path and through the reference path, and fails unless
// both give the same wire code, equal envelope fields and bit-identical
// instances. A body with a null number must be an instance error. It
// returns the server's code for the solve request.
func checkDecodeBody(t *testing.T, body []byte) string {
	t.Helper()
	null := nullNumber(body)

	var solve v1.SolveRequest
	code := serve.DecodeBody(body, &solve, &solve.Instance)
	var rs refSolve
	inst := solve.Instance
	solve.Instance = nil
	agree(t, "solve", null, code, refDecode(body, &rs), inst, rs.Instance, solve, rs.SolveRequest)

	var churn v1.ChurnRequest
	churnCode := serve.DecodeBody(body, &churn, &churn.Instance)
	var rc refChurn
	inst = churn.Instance
	churn.Instance = nil
	agree(t, "churn", null, churnCode, refDecode(body, &rc), inst, rc.Instance, churn, rc.ChurnRequest)
	return code
}

func agree(t *testing.T, route string, null bool, code, refCode string, inst *pointset.Set, ref *refSet, env, refEnv any) {
	t.Helper()
	if null {
		if code != v1.CodeBadInstance && code != v1.CodeDimMismatch {
			t.Fatalf("%s: null number answered %q, want an instance error", route, code)
		}
		return
	}
	if code != refCode {
		t.Fatalf("%s: code %q, reference %q", route, code, refCode)
	}
	if code != "" {
		return
	}
	if !reflect.DeepEqual(env, refEnv) {
		t.Fatalf("%s: envelope %+v, reference %+v", route, env, refEnv)
	}
	if ref == nil {
		if inst != nil {
			t.Fatalf("%s: decoded an instance the reference did not", route)
		}
		return
	}
	if inst == nil {
		t.Fatalf("%s: no instance; the reference decoded %d points", route, ref.set.Len())
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if inst.Dim() != ref.set.Dim() || !reflect.DeepEqual(bits(inst.Coords()), bits(ref.set.Coords())) ||
		!reflect.DeepEqual(bits(inst.Weights()), bits(ref.set.Weights())) {
		t.Fatalf("%s: instance bits differ from the reference's", route)
	}
	for i := 0; i < inst.Len(); i++ {
		if !reflect.DeepEqual(bits(inst.Point(i)), bits(ref.set.Point(i))) {
			t.Fatalf("%s: point %d = %v, reference %v", route, i, inst.Point(i), ref.set.Point(i))
		}
	}
}

// decodeBodyCases pin the body path's precedence rules, each with the
// code it answers.
func decodeBodyCases() []struct{ name, body, code string } {
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	return []struct{ name, body, code string }{
		{"duplicate instance keys: the last wins",
			`{"instance":{"points":[[9,9]]},"instance":{"points":[[0,0],[1,1]]},"radius":1,"k":2}`, ""},
		{"duplicate instance keys: an invalid first one fails",
			`{"instance":{"points":[[0],[1,1]]},"instance":{"points":[[0,0]]},"radius":1,"k":1}`, v1.CodeDimMismatch},
		{"a null last instance clears the first",
			`{"instance":{"points":[[0,0]]},"instance":null,"radius":1,"k":1}`, ""},
		{"key written INSTANCE", `{"INSTANCE":{"points":[[0,0]]},"radius":1,"k":1}`, ""},
		{"key written with an escape", `{"\u0069nstance":{"points":[[0,0]]},"radius":1,"k":1}`, ""},
		{"null instance", `{"instance":null,"radius":1,"k":1}`, ""},
		{"syntax error after an invalid instance",
			`{"instance":{"points":[]},"radius":1 "k":1}`, v1.CodeBadJSON},
		{"unknown field before an invalid instance",
			`{"bogus":true,"instance":{"points":[]},"radius":1,"k":1}`, v1.CodeBadInstance},
		{"unknown field after an invalid instance",
			`{"instance":{"points":[[0],[1,1]]},"radius":1,"k":1,"bogus":true}`, v1.CodeDimMismatch},
		{"envelope type error with a valid instance",
			`{"instance":{"points":[[0,0]]},"radius":"1","k":1}`, v1.CodeBadJSON},
		{"trailing bytes after the object",
			`{"instance":{"points":[[0,0]]},"radius":1,"k":1} trailing {[`, ""},
		{"instance that is not an object", `{"instance":[[0,0]],"radius":1,"k":1}`, v1.CodeBadInstance},
		{"body that is not an object", `[{"instance":{"points":[[0,0]]}}]`, v1.CodeBadJSON},
		{"null body", `null`, ""},
		{"empty body", ``, v1.CodeBadJSON},
		{"null coordinate", `{"instance":{"points":[[null,1],[2,2]]},"radius":1,"k":1}`, v1.CodeBadInstance},
		{"null weight", `{"instance":{"points":[[0,0],[1,1]],"weights":[null,3]},"radius":1,"k":1}`, v1.CodeBadInstance},
		{"10,001 levels in an unknown member", `{"bogus":` + nest(10_000) + `}`, v1.CodeBadJSON},
		{"10,001 levels in the instance",
			`{"instance":{"points":[[0,0]],"x":` + nest(9_999) + `},"radius":1,"k":1}`, v1.CodeBadJSON},
		{"10,000 levels in the instance",
			`{"instance":{"points":[[0,0]],"x":` + nest(9_998) + `},"radius":1,"k":1}`, ""},
		{"unclosed 1 MiB nest in an unknown member", `{"bogus":` + strings.Repeat("[", 1<<20), v1.CodeBadJSON},
	}
}

// TestDecodeBodyPrecedence pins which error a body answers when it has
// several, and that each case agrees with the reference path.
func TestDecodeBodyPrecedence(t *testing.T) {
	for _, tc := range decodeBodyCases() {
		t.Run(tc.name, func(t *testing.T) {
			if code := checkDecodeBody(t, []byte(tc.body)); code != tc.code {
				t.Errorf("code %q, want %q", code, tc.code)
			}
		})
	}
}

// FuzzDecodeBody fuzzes the server's body path against the strict
// encoding/json decode it replaced, for both request types.
//
//	go test -run '^$' -fuzz '^FuzzDecodeBody$' -fuzztime 20s ./internal/serve
func FuzzDecodeBody(f *testing.F) {
	for _, tc := range solveErrorCases() {
		f.Add(tc.body)
	}
	for _, tc := range decodeBodyCases() {
		if len(tc.body) < 1<<16 {
			f.Add(tc.body)
		}
	}
	f.Fuzz(func(t *testing.T, body string) {
		checkDecodeBody(t, []byte(body))
	})
}

// TestDecodeBodyTooLarge: the whole body counts against the cap, so a body
// over it is 413 even when its JSON ends in time, and a false
// Content-Length changes neither answer.
func TestDecodeBodyTooLarge(t *testing.T) {
	h := serve.New(serve.Config{MaxBody: 256}).Handler()
	fits := fmt.Sprintf(`{"instance":%s,"radius":1,"k":1}`, instanceJSON(5))
	over := fits + strings.Repeat(" ", 256)
	for _, tc := range []struct {
		body   string
		length int64
		status int
	}{
		{fits, int64(len(fits)), http.StatusOK},
		{fits, 10, http.StatusOK},
		{fits, 1 << 40, http.StatusOK},
		{over, int64(len(over)), http.StatusRequestEntityTooLarge},
		{over, 10, http.StatusRequestEntityTooLarge},
		{over, 1 << 40, http.StatusRequestEntityTooLarge},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(tc.body))
		r.ContentLength = tc.length
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != tc.status {
			t.Errorf("%d-byte body, Content-Length %d: status %d, want %d (%s)",
				len(tc.body), tc.length, rec.Code, tc.status, rec.Body.Bytes())
		}
	}
}

// BenchmarkDecodeBody_N100000 sends a perfbench-shaped /v1/solve body
// (n = 100,000 2-D users, integer weights 1..5, about 4.15 MB) through the
// server's body path. The 1,000-user body is serve-mix's size (one piece),
// and 15,000 users are about a forwarded part of solve-large (two pieces).
//
//	go test -run '^$' -bench DecodeBody -benchmem -cpu 1,2 ./internal/serve
func BenchmarkDecodeBody_N100000(b *testing.B) { benchmarkDecodeBody(b, 100_000) }
func BenchmarkDecodeBody_N15000(b *testing.B)  { benchmarkDecodeBody(b, 15_000) }
func BenchmarkDecodeBody_N1000(b *testing.B)   { benchmarkDecodeBody(b, 1_000) }

func benchmarkDecodeBody(b *testing.B, n int) {
	set, err := pointset.GenUniform(n, pointset.PaperBox2D(), pointset.RandomIntWeight, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(v1.SolveRequest{Instance: set, Radius: 0.0632, Norm: "l2",
		Solver: "nearlinear", K: 32, Options: v1.SolveOptions{Seed: 0x9e3779b97f4a7c15}})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req v1.SolveRequest
		if code := serve.DecodeBody(body, &req, &req.Instance); code != "" {
			b.Fatal(code)
		}
	}
}
