package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachCallsEveryIndexOnce: at every GOMAXPROCS, including settings
// above n, each index is called exactly once before Each returns.
func TestEachCallsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{0, 1, 7, 100} {
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			calls := make([]atomic.Int32, n)
			Each(n, func(i int) { calls[i].Add(1) })
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("n=%d GOMAXPROCS=%d: index %d called %d times", n, procs, i, c)
				}
			}
		}
	}
}
