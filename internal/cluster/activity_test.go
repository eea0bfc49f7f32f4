package cluster

import (
	"math"
	"reflect"
	"testing"

	"drowsydc/internal/simtime"
	"drowsydc/internal/timeline"
	"drowsydc/internal/trace"
)

// TestVMBurstsEquivalence checks that a VM's bursts always follow the
// timeline seed it reports, whichever way and in whichever order it
// was wired: private or shared timeline memos, over a group source or
// a member overlay, and re-wiring with another seed after a shared
// memo was attached and read, which must drop that memo. A caller's
// append to a result must leave the memo's hour as Expand built it:
// other cells read the same chunk.
func TestVMBurstsEquivalence(t *testing.T) {
	g := trace.RealTrace(1)
	base := trace.NewSource(g)
	shared := trace.NewTimelines(100, base)
	overlay := base.Variant(5, 13, 0.2)
	for _, tc := range []struct {
		name  string
		wire  func(v *VM)
		seed  uint64
		level func(simtime.Hour) float64
	}{
		{"default", func(*VM) {}, timeline.MixSeed(0xd40b5eed, 1), g.Activity},
		{"private", func(v *VM) { v.Wire(trace.NewSource(g), nil, 100) }, 100, g.Activity},
		{"shared", func(v *VM) { v.Wire(base, shared, 100) }, 100, g.Activity},
		{"shared then re-seeded", func(v *VM) {
			v.Wire(base, shared, 100)
			v.Bursts(8)
			v.Wire(base, nil, 101)
		}, 101, g.Activity},
		{"overlay", func(v *VM) { v.Wire(base.Variant(5, 13, 0.2), nil, 102) }, 102,
			trace.VariantJitter(g, 5, 13, 0.2).Activity},
		{"shared overlay", func(v *VM) {
			v.Wire(base.Variant(5, 13, 0.2), trace.NewTimelines(102, overlay), 102)
		}, 102, trace.VariantJitter(g, 5, 13, 0.2).Activity},
		{"appended to", func(v *VM) {
			v.Wire(base, shared, 100)
			for h := simtime.Hour(0); h < 7*24; h++ {
				_ = append(v.Bursts(h), timeline.Burst{Start: 3599, End: 3600})
			}
		}, 100, g.Activity},
	} {
		v := NewVM(1, "v", KindLLMI, 4, 2, g)
		tc.wire(v)
		if v.TimelineSeed() != tc.seed {
			t.Fatalf("%s: reports seed %#x, want %#x", tc.name, v.TimelineSeed(), tc.seed)
		}
		for h := simtime.Hour(0); h < 7*24; h++ {
			got, want := v.Bursts(h), timeline.Expand(tc.seed, h, tc.level(h))
			// The memo's whole hour, spare burst slots included.
			if memo := *v.tl.Ref(h); !reflect.DeepEqual(got, want.Bursts()) || memo != want {
				t.Fatalf("%s hour %d: bursts %v in memo hour %+v, want %+v", tc.name, h, got, memo, want)
			}
		}
	}
}

// TestVMTimelineSeedDefault pins that the default seed is a
// deterministic function of the VM ID, and that re-wiring with a new
// seed drops the memoized timelines.
func TestVMTimelineSeedDefault(t *testing.T) {
	g := trace.LLMU(1)
	a := NewVM(7, "a", KindLLMU, 4, 2, g)
	b := NewVM(7, "b", KindLLMU, 4, 2, g)
	if a.TimelineSeed() != b.TimelineSeed() {
		t.Fatal("same ID, different default timeline seeds")
	}
	if NewVM(8, "c", KindLLMU, 4, 2, g).TimelineSeed() == a.TimelineSeed() {
		t.Fatal("different IDs share a default timeline seed")
	}
	before := append([]timeline.Burst(nil), a.Bursts(10)...)
	a.Wire(trace.NewSource(g), nil, a.TimelineSeed()+1)
	if reflect.DeepEqual(before, a.Bursts(10)) {
		t.Fatal("reseeding did not change the timeline")
	}
}

// TestVMSharedTimelineSeedMismatch pins the wiring guard: a shared
// timeline memo carrying another seed would make the VM report one
// seed while replaying another's bursts, so it panics.
func TestVMSharedTimelineSeedMismatch(t *testing.T) {
	src := trace.NewSource(trace.RealTrace(2))
	v := NewVM(1, "v", KindLLMI, 4, 2, trace.RealTrace(2))
	defer func() {
		if recover() == nil {
			t.Fatal("seed mismatch did not panic")
		}
	}()
	v.Wire(src, trace.NewTimelines(100, src), 101)
}

// TestVMSharedTimelineSourceMismatch pins the other half of the wiring
// guard: a shared memo expanding another source's levels (here another
// jitter amount over the same base) would replay bursts that disagree
// with the VM's activity, so it panics.
func TestVMSharedTimelineSourceMismatch(t *testing.T) {
	base := trace.NewSource(trace.RealTrace(2))
	v := NewVM(1, "v", KindLLMI, 4, 2, trace.RealTrace(2))
	defer func() {
		if recover() == nil {
			t.Fatal("source mismatch did not panic")
		}
	}()
	v.Wire(base.Variant(5, 13, 0.3), trace.NewTimelines(100, base.Variant(5, 13, 0.2)), 100)
}

// TestVMActivityCachingEquivalence checks a VM's activity reads
// against direct evaluation of the generator it was built with, bit for
// bit: first on its default private memo, then after re-wiring with a
// fresh source, whose memo starts cold.
func TestVMActivityCachingEquivalence(t *testing.T) {
	gen := trace.RealTrace(2)
	v := NewVM(0, "c", KindLLMI, 4, 2, gen)
	for h := simtime.Hour(0); h < simtime.Hour(simtime.HoursPerYear); h += 11 {
		if got, want := v.Activity(h), gen.Activity(h); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Activity(%d): memoized %v, direct %v", h, got, want)
		}
	}
	v.Wire(trace.NewSource(gen), nil, v.TimelineSeed())
	for h := simtime.Hour(0); h < 1000; h += 3 {
		if got, want := v.Activity(h), gen.Activity(h); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Activity(%d) after re-wiring: memoized %v, direct %v", h, got, want)
		}
	}
}

// TestVMActivityAllocationFree guards the steady-state read paths:
// once their chunks are published, VM.Activity and VM.Bursts allocate
// nothing, for private memos and for overlays over a shared base.
func TestVMActivityAllocationFree(t *testing.T) {
	const span = 512
	g := trace.RealTrace(1)
	base := trace.NewSource(g)
	overlay := NewVM(1, "o", KindLLMI, 4, 2, g)
	overlay.Wire(base.Variant(3, 13, 0.2), nil, 3)
	for name, v := range map[string]*VM{"private": NewVM(0, "p", KindLLMI, 4, 2, g), "overlay": overlay} {
		for h := simtime.Hour(0); h < span; h++ {
			v.Bursts(h) // publishes the activity and timeline chunks
		}
		h := simtime.Hour(0)
		if allocs := testing.AllocsPerRun(1000, func() {
			_ = v.Activity(h % span)
			_ = v.Bursts(h % span)
			h++
		}); allocs != 0 {
			t.Fatalf("%s: steady-state Activity+Bursts allocate %.1f per call", name, allocs)
		}
	}
}
