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
// bit-identical values to per-hour IP calls: on a trained model before
// and after further observations move the scores and weights; across
// Dec 31 → Jan 1 on a model trained past a year end, where SI_m and the
// December and January SI_y rows are all present; and on a model
// observed under a short horizon, whose later week rows are nil.
func TestIPProfileMatchesScalarIP(t *testing.T) {
	check := func(name string, m *Model, start simtime.Hour) {
		t.Helper()
		var stamps [24]simtime.Stamp
		var got [24]float64
		for k := range stamps {
			stamps[k] = simtime.Decompose(start + simtime.Hour(k))
		}
		m.IPProfileInto(stamps[:], got[:])
		for k := range got {
			if want := m.IP(stamps[k]); !sameBits(got[k], want) {
				t.Fatalf("%s: profile[%d] at %d = %v, want %v", name, k, start, got[k], want)
			}
		}
	}
	m := trainedModel(40 * 24)
	g := trace.RealTrace(1)
	base := simtime.Hour(40 * 24)
	check("trained", m, base)
	// Interleave observations (which mutate SI cells and weights) with
	// overlapping profile reads, the consolidation-round access pattern.
	for i := 0; i < 48; i++ {
		h := base + simtime.Hour(i)
		m.Observe(simtime.Decompose(h), g.Activity(h))
		check("trained", m, h+1)
	}

	yearEnd := trainedModel(simtime.HoursPerYear + 48)
	if yearEnd.SIm == nil || yearEnd.SIy[0] == nil || yearEnd.SIy[11] == nil {
		t.Fatal("year-end: SI_m or the January or December SI_y row is missing")
	}
	for _, start := range []simtime.Hour{simtime.Date(0, 11, 30, 12), simtime.Date(1, 11, 30, 1)} {
		check("year-end", yearEnd, start)
	}

	short := New()
	const horizon = 200 // keeps the Monday and Tuesday rows only
	for h := simtime.Hour(0); h < 178; h++ {
		ObserveColumn(simtime.Decompose(h), []*Model{short}, []float64{g.Activity(h)}, horizon)
	}
	if short.SIw[1] == nil || short.SIw[2] != nil {
		t.Fatal("short horizon: want the Tuesday row kept and the Wednesday row nil")
	}
	for start := simtime.Hour(0); start < 178; start += 7 {
		check("short horizon", short, start)
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
// allocated rows: observing through the clone must not leak into the
// original's week row, SI_m table or year row.
func TestCloneIndependentAfterLazyRows(t *testing.T) {
	m := trainedModel(3 * 24)
	cp := m.Clone()
	st := simtime.Decompose(simtime.Hour(30)) // Tuesday 06:00, January 2
	week, month, year := *m.SIw[st.DayOfWeek], *m.SIm, *m.SIy[st.Month]
	before := m.IP(st)
	for i := 0; i < 100; i++ {
		cp.Observe(st, 0)
	}
	if got := m.IP(st); got != before {
		t.Fatalf("original IP changed from %v to %v after clone observed", before, got)
	}
	if *m.SIw[st.DayOfWeek] != week || *m.SIm != month || *m.SIy[st.Month] != year {
		t.Fatal("the clone's observations reached the original's rows")
	}
	if cp.IP(st) == before {
		t.Fatal("clone IP unchanged despite observations")
	}
}
