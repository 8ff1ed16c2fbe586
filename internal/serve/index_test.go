package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"

	v1 "repro/api/v1"
	"repro/internal/core"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/spatial"
	"repro/internal/xrand"
)

// instanceSpy is greedy2 registered as "test-instance-spy": it keeps the
// last instance it solved, so a test can read how the handler indexed it.
type instanceSpy struct{ core.LocalGreedy }

var (
	spyMu     sync.Mutex
	spiedInst *reward.Instance
)

func (s instanceSpy) Run(ctx context.Context, in *reward.Instance, k int) (*core.Result, error) {
	spyMu.Lock()
	spiedInst = in
	spyMu.Unlock()
	return s.LocalGreedy.Run(ctx, in, k)
}

func init() {
	if err := solver.Register(solver.Entry{Name: "test-instance-spy", Summary: "test: greedy2 that keeps its instance",
		New: func(solver.Options) core.Algorithm { return instanceSpy{} }}); err != nil {
		panic(err)
	}
}

// TestSolveIndexesWherePrunes: /v1/solve indexes its instance as
// reward.NewIndexed decides: no finder for 60 users at r = 2, where
// spatial.Prunes does not hold, and a grid over the instance's points at
// its radius for 400 users at r = 0.5, where it does.
func TestSolveIndexesWherePrunes(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	for _, c := range []struct {
		n       int
		r       float64
		indexed bool
	}{{60, 2, false}, {400, 0.5, true}} {
		set, err := pointset.GenUniform(c.n, pointset.PaperBox2D(), pointset.UnitWeight, xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(v1.SolveRequest{Instance: set, Radius: c.r, K: 2, Solver: "test-instance-spy"})
		if err != nil {
			t.Fatal(err)
		}
		spyMu.Lock()
		spiedInst = nil
		spyMu.Unlock()
		if resp, data := postJSON(t, ts.URL+"/v1/solve", string(body), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("n = %d: status %d: %s", c.n, resp.StatusCode, data)
		}
		spyMu.Lock()
		in := spiedInst
		spyMu.Unlock()
		if in == nil || in.N() != c.n || in.Radius != c.r {
			t.Fatalf("n = %d, r = %v: the spy solved no such instance", c.n, c.r)
		}
		if !c.indexed {
			if f := in.Finder(); f != nil {
				t.Errorf("n = %d, r = %v: finder %T, want none", c.n, c.r, f)
			}
			continue
		}
		g, ok := in.Finder().(*spatial.Grid)
		if !ok {
			t.Fatalf("n = %d, r = %v: finder %T, want *spatial.Grid", c.n, c.r, in.Finder())
		}
		fresh, err := spatial.NewGrid(in.Set.Points(), in.Radius)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range in.Set.Points() {
			if got, want := g.AppendNear(nil, p), fresh.AppendNear(nil, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("point %d: the grid appends %v, a fresh grid over the points %v", i, got, want)
			}
		}
	}
}
