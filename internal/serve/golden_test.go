package serve_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	v1 "repro/api/v1"
	"repro/internal/pointset"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite testdata/answers.golden from the current handler")

const answersGolden = "testdata/answers.golden"

// TestServedAnswersGolden posts one request per solver, norm, option set
// and instance size through the /v1/solve handler, cache off, and holds
// every answer's bits to testdata/answers.golden. Exhaustive search runs on
// the 40-user instance only. A moved answer fails here by row; rewrite the
// file on purpose with
//
//	go test ./internal/serve -run TestServedAnswersGolden -update
func TestServedAnswersGolden(t *testing.T) {
	var names []string
	for _, name := range solver.Names() {
		if !strings.HasPrefix(name, "test-") { // this package's stub solvers
			names = append(names, name)
		}
	}
	names = append(names, "sharded(greedy2-lazy)", "sharded(nearlinear)")
	h := serve.New(serve.Config{CacheBytes: -1}).Handler()
	var b strings.Builder
	for _, n := range []int{40, 500} {
		set, err := pointset.GenUniform(n, pointset.PaperBox2D(), pointset.RandomIntWeight, xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if name == "exhaustive" && n > 40 {
				continue
			}
			for _, nm := range []string{"l1", "l2", "linf"} {
				for _, opts := range []string{`{"seed":7}`, `{"seed":7,"refine":2,"halo":1}`} {
					body := fmt.Sprintf(`{"instance":%s,"radius":0.5,"k":4,"solver":%q,"norm":%q,"options":%s}`, inst, name, nm, opts)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
					if rec.Code != http.StatusOK {
						t.Fatalf("n=%d %s %s %s: status %d: %s", n, name, nm, opts, rec.Code, rec.Body.Bytes())
					}
					var out v1.SolveResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&b, "n=%d %s %s %s: solver=%s norm=%s k=%d n=%d partial=%v total=%s gains=",
						n, name, nm, opts, out.Solver, out.Norm, out.K, out.N, out.Partial, bitsHex(out.Total))
					for i, g := range out.Gains {
						if i > 0 {
							b.WriteByte(',')
						}
						b.WriteString(bitsHex(g))
					}
					b.WriteString(" centers=")
					for i, c := range out.Centers {
						if i > 0 {
							b.WriteByte(',')
						}
						for j, x := range c {
							if j > 0 {
								b.WriteByte(':')
							}
							b.WriteString(bitsHex(x))
						}
					}
					b.WriteByte('\n')
				}
			}
		}
	}
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(answersGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(answersGolden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	gotRows, wantRows := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotRows) != len(wantRows) {
		t.Errorf("%d rows, golden has %d", len(gotRows)-1, len(wantRows)-1)
	}
	for i := 0; i < min(len(gotRows), len(wantRows)); i++ {
		if gotRows[i] != wantRows[i] {
			t.Errorf("row %d moved:\n got %s\nwant %s", i+1, gotRows[i], wantRows[i])
		}
	}
}

// bitsHex spells a float64 as its IEEE 754 bit pattern, so the golden
// holds every bit of an answer.
func bitsHex(x float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(x))
}
