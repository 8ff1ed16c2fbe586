//go:build race

package solver_test

import "time"

// deadlineBound is how soon after its start a solve under a 100 ms deadline
// must return. The race detector slows the one stage no deadline cuts, a
// sharded solve's partition, several-fold: with another race-enabled test
// binary busy beside it, sharded cases returned after up to 0.43 s.
const deadlineBound = time.Second
