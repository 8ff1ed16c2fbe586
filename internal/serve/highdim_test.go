package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	v1 "repro/api/v1"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// highDimBody is a small sharded solve whose grid has 3^12 cells in every
// neighbor window but only 12 occupied cells: 12 users uniform in
// [0, 3.5]^12, r = 1, k = 2, two shards.
func highDimBody(solver string) string {
	rng := xrand.New(12)
	var b strings.Builder
	b.WriteString(`{"instance":{"dim":12,"points":[`)
	for i := 0; i < 12; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for d := 0; d < 12; d++ {
			if d > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.3f", rng.Uniform(0, 3.5))
		}
		b.WriteByte(']')
	}
	fmt.Fprintf(&b, `]},"radius":1,"k":2,"solver":%q,"options":{"shards":2}}`, solver)
	return b.String()
}

// TestSolveHighDimCellWalks: every cell-window walk (the grid finder's
// windows, the shard halo, nearlinear's neighbor precompute) visits only
// occupied cells, so a 12-D body costs what its 12 users cost, not 3^12
// cell probes per query.
func TestSolveHighDimCellWalks(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	for _, solver := range []string{"greedy2", "greedy2-lazy", "sharded(greedy2-lazy)", "nearlinear"} {
		t.Run(solver, func(t *testing.T) {
			start := time.Now()
			resp, data := postJSON(t, ts.URL+"/v1/solve", highDimBody(solver), nil)
			elapsed := time.Since(start)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			var out v1.SolveResponse
			if err := json.Unmarshal(data, &out); err != nil {
				t.Fatal(err)
			}
			if len(out.Centers) != 2 || out.Total <= 0 {
				t.Errorf("got %d centers, total %v", len(out.Centers), out.Total)
			}
			if elapsed > time.Second {
				t.Errorf("12-D solve took %v, want under 1s", elapsed)
			}
		})
	}
}
