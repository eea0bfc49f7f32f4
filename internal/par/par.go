// Package par is the bounded fan-out every parallel driver shares:
// experiment grids (internal/scenario, internal/exp), whose cells are
// independent deterministic simulations, and the simulation runtime's
// sharded executor (internal/dcsim), whose shards own disjoint state.
// Results land by index, so a parallel run is bit-identical to a
// serial one.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(0..n-1) on min(workers, n) goroutines. workers <= 0
// selects runtime.GOMAXPROCS(0); an effective count of 1 runs inline,
// with no scheduling overhead (the serial mode equivalence tests
// compare against). fn must touch only state owned by index i.
func For(workers, n int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map evaluates fn(0..n-1) like For and returns the results in index
// order.
func Map[T any](workers, n int, fn func(int) T) []T {
	out := make([]T, n)
	For(workers, n, func(i int) { out[i] = fn(i) })
	return out
}
