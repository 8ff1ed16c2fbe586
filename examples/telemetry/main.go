// Telemetry: instrument a solver run programmatically with internal/obs.
// The tour: build an instance, attach an obs.Metrics collector (aggregates)
// and an obs.Sink (streaming JSONL events) to it through obs.Multi, run an
// algorithm on it, then read the numbers back — per-round gains and wall
// times from the result, reward-evaluation and lazy heap counters from the
// snapshot.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/xrand"
)

func main() {
	ctx := context.Background()
	// 1. A 400-user instance on the paper's 4×4 plane.
	rng := xrand.New(7)
	users, err := pointset.GenUniform(400, pointset.PaperBox2D(), pointset.RandomIntWeight, rng)
	if err != nil {
		log.Fatal(err)
	}
	in, err := reward.NewInstance(users, norm.L2{}, 1)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Two collectors: metrics aggregate in memory, the sink streams
	//    every event as a JSON line. Multi fans out to both.
	metrics := obs.NewMetrics()
	f, err := os.CreateTemp("", "events-*.jsonl")
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(f.Name())
	sink := obs.NewSink(f)
	col := obs.Multi(metrics, sink)

	// 3. Attach the collector to the instance: the reward oracle counts its
	//    evaluations there, and every algorithm run on the instance reports
	//    its rounds there. Uninstrumented code pays nothing: a nil
	//    collector is a no-op.
	in.SetCollector(col)

	const k = 4
	res, err := core.LazyGreedy{}.Run(ctx, in, k)
	if err != nil {
		log.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		log.Fatal(err)
	}

	// 4. Read the aggregates back.
	snap := metrics.Snapshot()
	fmt.Printf("%s: total reward %.2f of %.0f\n", res.Algorithm, res.Total, users.TotalWeight())
	fmt.Printf("  reward evaluations: %d (a full scan per round would be %d)\n",
		snap.Counters[obs.CtrGainEvals], users.Len()*k)
	fmt.Printf("  lazy heap re-pops:  %d\n", snap.Counters[obs.CtrLazyRepops])
	fmt.Printf("  rounds:             %d\n", snap.Counters[obs.CtrRounds])
	if h, ok := snap.TimersNS[obs.StageRound+"_ns"]; ok {
		fmt.Printf("  round wall time:    mean %.0f ns, p99 %.0f ns\n", h.Mean, h.P99)
	}

	// 5. The same run, per round, from the result: every round-based
	//    algorithm records each round's wall time beside its gain, with or
	//    without a collector.
	fmt.Println("  per-round telemetry:")
	for j, g := range res.Gains {
		fmt.Printf("    round %d: gain %.2f, %.2f ms\n", j+1, g, float64(res.RoundNS[j])/1e6)
	}

	// 6. The sink streamed every event as JSONL for offline tools: each
	//    round is a core.round stage, whose span_end carries its gain,
	//    wall time and re-pop counts.
	st, _ := f.Stat()
	fmt.Printf("  event stream:       %s (%d bytes of JSONL)\n", f.Name(), st.Size())

	// 7. Anytime results under a deadline: a context that cancels after the
	//    first core.round span_end makes the solver stop at the next round
	//    boundary and return its committed prefix together with ctx.Err().
	//    Telemetry counts the early stop in core.cancelled.
	dm := obs.NewMetrics()
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	bounded := in.WithCollector(obs.Multi(dm, cancelAfterRound{1, cancel}))
	partial, err := core.LazyGreedy{}.Run(dctx, bounded, k)
	if err != context.Canceled {
		log.Fatalf("expected context.Canceled, got %v", err)
	}
	fmt.Printf("deadline-bounded run: %d of %d rounds committed, partial reward %.2f\n",
		len(partial.Centers), k, partial.Total)
	fmt.Printf("  cancelled runs:     %d\n", dm.Snapshot().Counters[obs.CtrCancelled])
}

// cancelAfterRound is an obs.Collector that fires a context cancel once the
// given round's stage ends — a deterministic stand-in for a wall-clock
// deadline.
type cancelAfterRound struct {
	round  int
	cancel context.CancelFunc
}

func (cancelAfterRound) Count(string, int64)     {}
func (cancelAfterRound) TimeNS(string, int64)    {}
func (cancelAfterRound) Gauge(string, float64)   {}
func (cancelAfterRound) Observe(string, float64) {}
func (c cancelAfterRound) Emit(e obs.Event) {
	if e.Type == obs.EvSpanEnd && e.Name == obs.StageRound && e.Fields["round"] >= float64(c.round) {
		c.cancel()
	}
}
