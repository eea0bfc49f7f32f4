package timeline

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"drowsydc/internal/simtime"
)

// TestExpandPartition checks the structural invariants of every
// timeline over a grid of seeds, hours and levels: busy seconds match
// the rounded level, bursts are sorted and disjoint with at least one
// idle second between them, and everything stays inside the hour.
func TestExpandPartition(t *testing.T) {
	levels := []float64{0.0001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999}
	for seed := uint64(0); seed < 5; seed++ {
		for h := simtime.Hour(0); h < 200; h += 7 {
			for _, level := range levels {
				hr := Expand(seed, h, level)
				bursts := hr.Bursts()
				wantBusy := int(level*float64(SecondsPerHour) + 0.5)
				if wantBusy < 1 {
					wantBusy = 1
				}
				if got := BusySeconds(bursts); got != wantBusy {
					t.Fatalf("seed %d hour %d level %v: %d busy seconds, want %d",
						seed, h, level, got, wantBusy)
				}
				if len(bursts) < 1 || len(bursts) > MaxBurstsPerHour {
					t.Fatalf("level %v: %d bursts", level, len(bursts))
				}
				prevEnd := -1
				for i, b := range bursts {
					if int(b.End) > SecondsPerHour || b.Len() < 1 {
						t.Fatalf("burst %d out of shape: %+v", i, b)
					}
					if i > 0 && int(b.Start) <= prevEnd {
						t.Fatalf("burst %d overlaps or touches previous (%d <= %d)",
							i, b.Start, prevEnd)
					}
					prevEnd = int(b.End)
				}
			}
		}
	}
}

// TestExpandPure pins the determinism contract: repeated calls return
// identical timelines, and distinct seeds or hours decorrelate them.
func TestExpandPure(t *testing.T) {
	a := Expand(42, 100, 0.3)
	b := Expand(42, 100, 0.3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Expand is not pure: %v vs %v", a, b)
	}
	otherSeed := Expand(43, 100, 0.3)
	otherHour := Expand(42, 101, 0.3)
	if reflect.DeepEqual(a, otherSeed) && reflect.DeepEqual(a, otherHour) {
		t.Fatalf("Expand ignores seed and hour")
	}
}

// TestExpandEdges covers the degenerate levels.
func TestExpandEdges(t *testing.T) {
	bursts := func(level float64) []Burst {
		hr := Expand(1, 5, level)
		return hr.Bursts()
	}
	if got := bursts(0); len(got) != 0 {
		t.Fatalf("level 0: %v, want no bursts", got)
	}
	if got := bursts(-0.5); len(got) != 0 {
		t.Fatalf("negative level: %v, want no bursts", got)
	}
	if got := bursts(math.NaN()); len(got) != 0 {
		t.Fatalf("NaN level: %v, want no bursts", got)
	}
	full := []Burst{{0, uint16(SecondsPerHour)}}
	if got := bursts(1); !reflect.DeepEqual(got, full) {
		t.Fatalf("level 1: %v, want full hour", got)
	}
	if got := bursts(2.5); !reflect.DeepEqual(got, full) {
		t.Fatalf("level > 1: %v, want full hour", got)
	}
	// A level rounding to the full hour collapses to one burst.
	if got := bursts(0.99999); !reflect.DeepEqual(got, full) {
		t.Fatalf("level ~1: %v, want full hour", got)
	}
	// A tiny positive level still yields one one-second burst.
	if got := bursts(1e-9); BusySeconds(got) != 1 || len(got) != 1 {
		t.Fatalf("tiny level: %v, want one 1 s burst", got)
	}
}

// TestUnion checks merge semantics: overlap, touching intervals,
// ordering, reuse of dst, and empties.
func TestUnion(t *testing.T) {
	got := Union(nil,
		[]Burst{{10, 20}, {40, 50}},
		[]Burst{{15, 25}, {50, 60}},
		[]Burst{{100, 110}})
	want := []Burst{{10, 25}, {40, 60}, {100, 110}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("union: %v, want %v", got, want)
	}
	if got := Union(nil); len(got) != 0 {
		t.Fatalf("empty union: %v", got)
	}
	// dst is reused when capacity allows.
	dst := make([]Burst, 0, 16)
	got = Union(dst, []Burst{{1, 2}})
	if &got[0] != &dst[:1][0] {
		t.Fatalf("union did not reuse dst")
	}
	// Union of a host's per-VM expansions never exceeds the hour and
	// stays sorted/disjoint.
	hours := []Hour{Expand(1, 7, 0.3), Expand(2, 7, 0.5), Expand(3, 7, 0.1)}
	lists := [][]Burst{hours[0].Bursts(), hours[1].Bursts(), hours[2].Bursts()}
	merged := Union(nil, lists...)
	prevEnd := -1
	for _, b := range merged {
		if int(b.Start) <= prevEnd || int(b.End) > SecondsPerHour || b.Len() < 1 {
			t.Fatalf("merged interval out of shape: %v", merged)
		}
		prevEnd = int(b.End)
	}
}

// TestMixSeed checks the seed mixer separates its inputs.
func TestMixSeed(t *testing.T) {
	seen := map[uint64]bool{}
	for gi := uint64(0); gi < 4; gi++ {
		for i := uint64(0); i < 4; i++ {
			s := MixSeed(gi, 0xbeef, i)
			if seen[s] {
				t.Fatalf("seed collision at (%d, %d)", gi, i)
			}
			seen[s] = true
		}
	}
	if MixSeed(1, 2) == MixSeed(2, 1) {
		t.Fatal("MixSeed is order-insensitive")
	}
	if MixSeed() != MixSeed() {
		t.Fatal("MixSeed not deterministic")
	}
}

// TestExpandAllocatesOnlyResult: an interior level (a timeline with
// gaps) allocates nothing — the result is an inline Hour, and the burst
// and gap partitions live in fixed arrays.
func TestExpandAllocatesOnlyResult(t *testing.T) {
	for _, level := range []float64{0.0003, 0.05, 0.3, 0.5, 0.9, 0.9995} {
		h := simtime.Hour(0)
		n := testing.AllocsPerRun(200, func() {
			h++
			if hr := Expand(0xfeed, h, level); len(hr.Bursts()) == 0 {
				t.Fatal("interior level expanded to no bursts")
			}
		})
		if n != 0 {
			t.Errorf("Expand(level %v) allocates %v times, want 0", level, n)
		}
	}
}

// TestHourFootprint pins the inline hour at 18 bytes — a count and four
// 4-byte bursts — so a memo chunk of 64 hours holds 1,152 bytes.
func TestHourFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Hour{}); got != 18 {
		t.Fatalf("timeline.Hour is %d bytes, want 18", got)
	}
}

// BenchmarkExpand measures one hour's expansion (the quantity memoized
// per (VM, hour)).
func BenchmarkExpand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Expand(0xfeed, simtime.Hour(i%8760), 0.3)
	}
}
