//go:build !race

package solver_test

import "time"

// deadlineBound is how soon after its start a solve under a 100 ms deadline
// must return.
const deadlineBound = 300 * time.Millisecond
