package fanout

import (
	"sync/atomic"
	"testing"
)

// TestEachCallsEveryIndexOnce: at every bound, including bounds above n
// and the GOMAXPROCS default (par <= 0), each index is called exactly once
// before Each returns.
func TestEachCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, par := range []int{-1, 0, 1, 2, 8, 200} {
			calls := make([]atomic.Int32, n)
			Each(par, n, func(i int) { calls[i].Add(1) })
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("n=%d par=%d: index %d called %d times", n, par, i, c)
				}
			}
		}
	}
}
