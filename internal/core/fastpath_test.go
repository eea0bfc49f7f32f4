package core

import (
	"testing"

	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// trainedModel builds a model with a realistic mix of idle and active
// observations.
func trainedModel(hours int) *Model {
	m := New()
	g := trace.RealTrace(1)
	for h := simtime.Hour(0); h < simtime.Hour(hours); h++ {
		m.Observe(simtime.Decompose(h), g.Activity(h))
	}
	return m
}

// TestIPProfileMatchesScalarIP asserts the batched profile read returns
// bit-identical values to per-hour IP calls, both before and after
// further observations move the scores and weights.
func TestIPProfileMatchesScalarIP(t *testing.T) {
	m := trainedModel(40 * 24)
	g := trace.RealTrace(1)
	check := func(start simtime.Hour) {
		t.Helper()
		var stamps [24]simtime.Stamp
		var got [24]float64
		for k := range stamps {
			stamps[k] = simtime.Decompose(start + simtime.Hour(k))
		}
		m.IPProfileInto(stamps[:], got[:])
		for k := range got {
			if want := m.IP(stamps[k]); got[k] != want {
				t.Fatalf("profile[%d] at %d = %v, want %v", k, start, got[k], want)
			}
		}
	}
	base := simtime.Hour(40 * 24)
	check(base)
	// Interleave observations (which mutate SI cells and weights) with
	// overlapping profile reads, the consolidation-round access pattern.
	for i := 0; i < 48; i++ {
		h := base + simtime.Hour(i)
		m.Observe(simtime.Decompose(h), g.Activity(h))
		check(h + 1)
	}
}

// TestModelIPAllocationFree guards the per-decision IP computation and
// the batched profile path.
func TestModelIPAllocationFree(t *testing.T) {
	m := trainedModel(2000)
	st := simtime.Decompose(99999)
	if allocs := testing.AllocsPerRun(1000, func() { _ = m.IP(st) }); allocs != 0 {
		t.Fatalf("Model.IP allocates %.1f per call", allocs)
	}
	var stamps [24]simtime.Stamp
	var out [24]float64
	for k := range stamps {
		stamps[k] = simtime.Decompose(simtime.Hour(5000 + k))
	}
	if allocs := testing.AllocsPerRun(1000, func() { m.IPProfileInto(stamps[:], out[:]) }); allocs != 0 {
		t.Fatalf("Model.IPProfileInto allocates %.1f per call", allocs)
	}
}

// TestCloneIndependentAfterLazyRows verifies the deep copy of lazily
// allocated year rows: observing through the clone must not leak into
// the original.
func TestCloneIndependentAfterLazyRows(t *testing.T) {
	m := trainedModel(24)
	cp := m.Clone()
	st := simtime.Decompose(simtime.Hour(30))
	before := m.IP(st)
	for i := 0; i < 100; i++ {
		cp.Observe(st, 0)
	}
	if got := m.IP(st); got != before {
		t.Fatalf("original IP changed from %v to %v after clone observed", before, got)
	}
	if cp.IP(st) == before {
		t.Fatal("clone IP unchanged despite observations")
	}
}
