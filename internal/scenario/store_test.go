package scenario

import (
	"bytes"
	"sync"
	"testing"
)

// The server-lifetime store contract: sourcing the shared trace and
// timeline stores from a StoreCache — including reusing one entry
// across many runs and sweeps, concurrently — is invisible in the
// results. Every assertion is byte-level JSON equality against the
// per-run (and private) baselines the earlier equivalence tests
// established.

// runJSON renders a report for byte comparison.
func runJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestStoreCacheBitIdentical pins cached-store runs against both the
// per-run-store and private-memo baselines, and that repeated runs of
// one structure share a single cache entry.
func TestStoreCacheBitIdentical(t *testing.T) {
	p := Params{Hosts: 6, HorizonHours: 5 * 24}
	baseline, err := RunFamily("always-on-mix", p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	private, err := RunFamily("always-on-mix", p, Options{Workers: 1, private: true})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewStoreCache()
	first, err := RunFamily("always-on-mix", p, Options{Workers: 1, Stores: cache})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunFamily("always-on-mix", p, Options{Stores: cache})
	if err != nil {
		t.Fatal(err)
	}
	want := runJSON(t, baseline)
	for name, rep := range map[string]*Report{"private": private, "cached-first": first, "cached-second": second} {
		if got := runJSON(t, rep); !bytes.Equal(got, want) {
			t.Errorf("%s run diverges from the per-run-store baseline", name)
		}
	}
	if cache.Len() != 1 {
		t.Fatalf("two identical runs built %d store entries, want 1", cache.Len())
	}
}

// TestStoreCacheSweepBitIdentical pins a cached-store sweep (including
// a resolution sweep, whose event points need timeline stores the
// hourly entry lacks) against the per-run baseline, and that distinct
// structures get distinct entries.
func TestStoreCacheSweepBitIdentical(t *testing.T) {
	p := Params{Hosts: 6, HorizonHours: 5 * 24}
	sw := Sweep{Param: "resolution", Values: []float64{0, 1}}
	baseline, err := RunFamilySweep("always-on-mix", p, sw, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewStoreCache()
	cached, err := RunFamilySweep("always-on-mix", p, sw, Options{Workers: 1, Stores: cache})
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := baseline.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := cached.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("cached-store sweep diverges from the per-run-store baseline")
	}
	// The sweep's store source is promoted to event resolution, so a
	// plain hourly run of the same family must not alias its entry.
	if _, err := RunFamily("always-on-mix", p, Options{Stores: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Fatalf("event-promoted sweep and hourly run share entries: %d, want 2", cache.Len())
	}
	// A different horizon is a different replay span: new entry.
	if _, err := RunFamily("always-on-mix", Params{Hosts: 6, HorizonHours: 3 * 24},
		Options{Stores: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 3 {
		t.Fatalf("distinct horizons share a store entry: %d, want 3", cache.Len())
	}
}

// TestStoreCacheConcurrentRequests mimics the drowsyd serving loop:
// many goroutines running the same family through one StoreCache
// concurrently (distinct cache keys are NOT deduplicated here — that is
// the result cache's job upstream) must all produce the baseline bytes
// and populate exactly one entry. Run with -race in CI.
func TestStoreCacheConcurrentRequests(t *testing.T) {
	p := Params{Hosts: 6, HorizonHours: 3 * 24}
	baseline, err := RunFamily("diurnal-office", p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := runJSON(t, baseline)
	cache := NewStoreCache()
	const requests = 8
	got := make([][]byte, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := RunFamily("diurnal-office", p, Options{Workers: 2, Stores: cache})
			if err != nil {
				t.Error(err)
				return
			}
			var b bytes.Buffer
			if err := rep.WriteJSON(&b); err != nil {
				t.Error(err)
				return
			}
			got[i] = b.Bytes()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("concurrent cached-store run %d diverges from the baseline", i)
		}
	}
	if cache.Len() != 1 {
		t.Fatalf("concurrent identical runs built %d store entries, want 1", cache.Len())
	}
}
