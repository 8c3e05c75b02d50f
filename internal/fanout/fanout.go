// Package fanout runs independent indexed jobs on a bounded set of
// goroutines: the partition's lookup blocks and phase 1's centers
// (internal/core), the order table's center builds (internal/assign) and
// the sharded engine's shard games and cut scans (internal/collab).
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls f(i) for every i < n on up to GOMAXPROCS goroutines, each
// taking the next index no other has taken, and returns once every call has
// returned. At GOMAXPROCS 1 (or n <= 1) the caller runs them in order. f
// must be safe to call concurrently for distinct indices.
func Each(n int, f func(i int)) {
	par := min(runtime.GOMAXPROCS(0), n)
	if par <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(par)
	for g := 0; g < par; g++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}
