package par

import (
	"sync/atomic"
	"testing"
)

// TestMapIndexOrder checks that every worker count, including the
// GOMAXPROCS default and more workers than items, returns fn(i) at
// index i and calls fn exactly once per index.
func TestMapIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var calls atomic.Int64
		got := Map(workers, 50, func(i int) int {
			calls.Add(1)
			return i * i
		})
		if len(got) != 50 || calls.Load() != 50 {
			t.Fatalf("workers=%d: %d results from %d calls", workers, len(got), calls.Load())
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: index %d holds %d", workers, i, v)
			}
		}
	}
	if got := Map(4, 0, func(int) int { return 1 }); len(got) != 0 {
		t.Fatalf("empty map returned %d results", len(got))
	}
}
