package timeline

import (
	"fmt"
	"math"
	"testing"

	"drowsydc/internal/simtime"
)

// refBurst is a burst in plain ints, so the reference cannot share a
// narrowing with the code under test.
type refBurst struct{ Start, End int }

// referenceExpand is Expand as a slice of int-second bursts: the
// allocating form the inline Hour replaced, kept as the reference the
// inline form must reproduce burst for burst.
func referenceExpand(seed uint64, h simtime.Hour, level float64) []refBurst {
	if !(level > 0) {
		return nil
	}
	if level >= 1 {
		return []refBurst{{0, SecondsPerHour}}
	}
	busy := int(level*float64(SecondsPerHour) + 0.5)
	if busy < 1 {
		busy = 1
	}
	if busy >= SecondsPerHour {
		return []refBurst{{0, SecondsPerHour}}
	}
	idle := SecondsPerHour - busy
	r := newRNG(seed, h)
	maxN := MaxBurstsPerHour
	if busy < maxN {
		maxN = busy
	}
	if idle+1 < maxN {
		maxN = idle + 1
	}
	n := 1 + int(r.next()%uint64(maxN))
	var burstExtra, gapExtra [MaxBurstsPerHour + 1]int
	partition(burstExtra[:n], busy-n, &r)
	partition(gapExtra[:n+1], idle-(n-1), &r)
	bursts := make([]refBurst, n)
	pos := gapExtra[0]
	for i := 0; i < n; i++ {
		l := 1 + burstExtra[i]
		bursts[i] = refBurst{pos, pos + l}
		pos += l + gapExtra[i+1]
		if i < n-1 {
			pos++
		}
	}
	return bursts
}

// TestExpandMatchesReference checks the inline Expand against the
// slice-returning reference over seeds, hours and levels from below
// zero to above one, NaN and the rounding edges included: the same
// burst count, and every burst's seconds equal as ints.
func TestExpandMatchesReference(t *testing.T) {
	levels := []float64{-0.5, 0, math.NaN(), 1e-9, 0.0003, 0.01, 0.3, 0.5, 0.9995, 0.99999, 1, 2.5}
	for _, seed := range []uint64{0, 1, 42, 0xfeed, 0xd40b5eed} {
		for _, h := range []simtime.Hour{0, 1, 7, 63, 64, 100, 1000, simtime.HoursPerYear + 5} {
			for _, level := range levels {
				hr := Expand(seed, h, level)
				got := hr.Bursts()
				want := referenceExpand(seed, h, level)
				same := len(got) == len(want)
				for i := 0; same && i < len(got); i++ {
					same = int(got[i].Start) == want[i].Start && int(got[i].End) == want[i].End
				}
				if !same {
					t.Fatalf("seed %#x hour %d level %v: %v, reference %v",
						seed, h, level, got, fmt.Sprint(want))
				}
			}
		}
	}
}
