package shard

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/xrand"
)

// allocatedMB reports the bytes fn allocates, in MB, as the process-wide
// runtime.MemStats.TotalAlloc delta around it (1 MB = 10^6 bytes, as
// perfbench counts): exact for a call that
// starts no goroutines while nothing else in the test binary runs.
func allocatedMB(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

// TestLargePartitionBytes pins the bytes of a large sharded solve at its
// served shape (100,000 users, r = 0.0632, 8 shards): the partition, part
// subsets and part grids included, and the parts' first-round gain sweeps,
// residuals, outputs and bulk windows included. Both run on this goroutine,
// so neither depends on scheduling; the race detector's dropped sync.Pool
// entries cost the sweeps at most a few window-sized scratch buffers.
func TestLargePartitionBytes(t *testing.T) {
	set, err := pointset.GenUniform(100000, pointset.PaperBox2D(), pointset.RandomIntWeight, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	in, err := reward.NewIndexed(set, norm.L2{}, 0.0632, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var parts []core.Part
	mb := allocatedMB(func() { parts, err = Partitioner{Shards: 8}.Partition(ctx, in, 32) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("partition: %.2f MB", mb)
	if mb > 9 {
		t.Errorf("partition allocates %.2f MB, want at most 9", mb)
	}
	mb = allocatedMB(func() {
		for _, p := range parts {
			y, out := p.In.NewResiduals(), make([]float64, p.In.N())
			if err = p.In.RoundGains(ctx, y, out); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("first rounds: %.2f MB", mb)
	if mb > 7.5 {
		t.Errorf("the parts' first rounds allocate %.2f MB, want at most 7.5", mb)
	}
}
