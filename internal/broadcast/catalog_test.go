package broadcast

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/pointset"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func denseCatalog() []vec.V {
	// 9×9 lattice over the 4×4 box: a rich library.
	pts, _ := pointset.GridPoints(pointset.PaperBox2D(), 9)
	return pts
}

func TestCatalogSchedulerSnaps(t *testing.T) {
	tr := genTrace(t, 30, trace.Uniform)
	cfg := baseCfg()
	cat := denseCatalog()
	m, err := Run(context.Background(), tr, Catalog{Inner: core.ComplexGreedy{}, Items: cat}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Algorithm != "greedy4+catalog" {
		t.Errorf("name = %q", m.Algorithm)
	}
	// Every broadcast must be a catalog item.
	for _, p := range m.Periods {
		for _, c := range p.Centers {
			found := false
			for _, item := range cat {
				if c.Equal(item) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("center %v not in catalog", c)
			}
		}
	}
}

func TestCatalogNoDuplicatesWithinPeriod(t *testing.T) {
	// A tight population makes the inner algorithm propose nearby ideal
	// centers; the catalog must still hand out distinct items.
	tr, err := trace.Generate(trace.Config{
		N: 20, Box: pointset.PaperBox2D(), Kind: trace.Clustered,
		Scheme: pointset.UnitWeight, Topics: 1, Sigma: 0.05,
	}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg()
	cfg.K = 3
	m, err := Run(context.Background(), tr, Catalog{Inner: core.SimpleGreedy{}, Items: denseCatalog()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Periods {
		for i := 0; i < len(p.Centers); i++ {
			for j := i + 1; j < len(p.Centers); j++ {
				if p.Centers[i].Equal(p.Centers[j]) {
					t.Fatalf("period %d broadcast the same catalog item twice: %v", p.Period, p.Centers[i])
				}
			}
		}
	}
}

func TestCatalogDegradesGracefully(t *testing.T) {
	// A dense catalog should cost little vs unconstrained placement; a
	// 2-item corner catalog should cost a lot.
	tr := genTrace(t, 40, trace.Clustered)
	cfg := baseCfg()
	free, err := Run(context.Background(), tr, greedyAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Run(context.Background(), tr, Catalog{Inner: greedyAlg(), Items: denseCatalog()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	poor, err := Run(context.Background(), tr, Catalog{Inner: greedyAlg(), Items: []vec.V{vec.Of(0, 0), vec.Of(4, 4)}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dense.MeanSatisfaction < 0.7*free.MeanSatisfaction {
		t.Errorf("dense catalog lost too much: %v vs free %v", dense.MeanSatisfaction, free.MeanSatisfaction)
	}
	if poor.MeanSatisfaction >= dense.MeanSatisfaction {
		t.Errorf("2-corner catalog %v not worse than dense %v", poor.MeanSatisfaction, dense.MeanSatisfaction)
	}
}

func TestCatalogValidation(t *testing.T) {
	tr := genTrace(t, 10, trace.Uniform)
	cfg := baseCfg()
	cfg.K = 3
	if _, err := Run(context.Background(), tr, Catalog{Inner: greedyAlg(), Items: denseCatalog()[:2]}, cfg); err == nil {
		t.Error("undersized catalog accepted")
	}
	if _, err := Run(context.Background(), tr, Catalog{Items: denseCatalog()}, cfg); err == nil {
		t.Error("nil inner algorithm accepted")
	}
	// Dimension-incompatible catalog.
	bad := Catalog{Inner: greedyAlg(), Items: []vec.V{vec.Of(1, 2, 3), vec.Of(1, 1, 1), vec.Of(0, 0, 0)}}
	if _, err := Run(context.Background(), tr, bad, cfg); err == nil {
		t.Error("dimension-incompatible catalog accepted")
	}
}
