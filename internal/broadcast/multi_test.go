package broadcast

import (
	"context"
	"math"
	"testing"

	"repro/internal/trace"
)

func TestRunMultiBasic(t *testing.T) {
	tr := genTrace(t, 60, trace.Clustered)
	cfg := baseCfg()
	for _, mode := range []AssignMode{RandomAssign, NearestAnchor} {
		m, err := RunMulti(context.Background(), tr, greedyAlg(), cfg, 3, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(m.Stations) != 3 {
			t.Fatalf("%v: stations = %d", mode, len(m.Stations))
		}
		users := 0
		for _, s := range m.Stations {
			users += s.Users
		}
		if users != 60 {
			t.Fatalf("%v: partition lost users: %d", mode, users)
		}
		if m.MeanSatisfaction <= 0 || m.MeanSatisfaction > 1 {
			t.Fatalf("%v: satisfaction = %v", mode, m.MeanSatisfaction)
		}
		if m.TotalBroadcasts != 3*cfg.K {
			t.Fatalf("%v: budget = %d", mode, m.TotalBroadcasts)
		}
	}
}

func TestRunMultiValidation(t *testing.T) {
	tr := genTrace(t, 10, trace.Uniform)
	cfg := baseCfg()
	if _, err := RunMulti(context.Background(), nil, greedyAlg(), cfg, 2, RandomAssign); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := RunMulti(context.Background(), tr, greedyAlg(), cfg, 0, RandomAssign); err == nil {
		t.Error("0 stations accepted")
	}
	if _, err := RunMulti(context.Background(), tr, greedyAlg(), cfg, 2, AssignMode(9)); err == nil {
		t.Error("bad assign mode accepted")
	}
}

func TestRunMultiSingleStationMatchesRun(t *testing.T) {
	// One station with RandomAssign degenerates to the plain simulation
	// (modulo the per-station seed derivation, so compare satisfaction
	// within tolerance on a drift-free config).
	tr := genTrace(t, 30, trace.Uniform)
	cfg := baseCfg()
	cfg.DriftSigma = 0
	cfg.ChurnRate = 0
	single, err := Run(context.Background(), tr, greedyAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunMulti(context.Background(), tr, greedyAlg(), cfg, 1, RandomAssign)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(single.MeanSatisfaction-multi.MeanSatisfaction) > 1e-9 {
		t.Fatalf("single %v != multi(1) %v", single.MeanSatisfaction, multi.MeanSatisfaction)
	}
}

func TestRunMultiDeterministic(t *testing.T) {
	tr := genTrace(t, 40, trace.Uniform)
	cfg := baseCfg()
	a, err := RunMulti(context.Background(), tr, greedyAlg(), cfg, 3, NearestAnchor)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMulti(context.Background(), tr, greedyAlg(), cfg, 3, NearestAnchor)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanSatisfaction != b.MeanSatisfaction {
		t.Fatal("multi-station run not deterministic")
	}
}

func TestRunMultiEmptyStationHandled(t *testing.T) {
	// 5 stations over 3 users: at least two stations are empty and must
	// not error out or skew the aggregate.
	tr := genTrace(t, 3, trace.Uniform)
	cfg := baseCfg()
	m, err := RunMulti(context.Background(), tr, greedyAlg(), cfg, 5, RandomAssign)
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanSatisfaction <= 0 {
		t.Fatalf("satisfaction = %v", m.MeanSatisfaction)
	}
}

func TestAssignModeString(t *testing.T) {
	if RandomAssign.String() != "random" || NearestAnchor.String() != "nearest-anchor" {
		t.Error("mode strings wrong")
	}
	if AssignMode(7).String() == "" {
		t.Error("unknown mode empty")
	}
}
