package core

import (
	"math"
	"testing"

	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// sameBits reports whether two IPs are bit-identical.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSkippingObserveHandsOverIP: an observe whose horizon skips a
// cell leaves IPAt's memo at the observed hour holding the bits a
// keep-everything clone reads there, although the skipping model's own
// tables no longer give them. It covers a fresh model (SI_m and the
// SI_y row both skipped) and a trained one whose SI_m table exists
// (only the SI_y row skipped).
func TestSkippingObserveHandsOverIP(t *testing.T) {
	h := simtime.Date(0, 4, 10, 13) // May: no trained model has its row
	for _, tc := range []struct {
		name string
		m    *Model
	}{
		{"fresh", New()},
		{"trained", trainedModel(40 * 24)},
	} {
		keep := tc.m.Clone()
		st := simtime.Decompose(h)
		ObserveColumn(st, []*Model{tc.m}, []float64{0.4}, h)
		keep.Observe(st, 0.4)
		if tc.m.SIy[st.Month] != nil {
			t.Fatalf("%s: the SI_y row was allocated under a horizon that reads nothing back", tc.name)
		}
		want := keep.IPAt(h)
		if got := tc.m.IPAt(h); !sameBits(got, want) {
			t.Fatalf("%s: IPAt(%d) = %v after a skipping observe, keep-everything clone %v", tc.name, h, got, want)
		}
		if sameBits(tc.m.IP(st), want) {
			t.Fatalf("%s: the skipping model's tables already give the clone's IP; the memo handover is untested", tc.name)
		}
	}
}

// TestHorizonReadsMatchKeepAll is the storage rule's tripwire at the
// model level. A model observed under a run's read horizon (its last
// hour plus 23) and a keep-everything twin see the same activity; each
// hour, every read the runtime can make must agree bit for bit: the
// 24-hour profile before the observation, and IPAt at the hour just
// observed after it. Each case's last profile read lands exactly on its
// horizon, on a row first written one read-back gap before it:
//   - year and month end on Feb 28 01:00, so the last profile reads
//     Mar 1 00:00. The year-long run reads a SI_y cell written exactly
//     one year before the horizon; the 650-hour run from Feb 1 keeps its
//     SI_m table by exactly one hour;
//   - week starts on Monday 00:00 (hour 0) and ends at hour 169, so the
//     last profile reads hour 192, Tuesday 00:00, a cell of the Tuesday
//     row first written at hour 24.
//
// A bound one hour tighter on any scale fails here.
func TestHorizonReadsMatchKeepAll(t *testing.T) {
	feb28 := simtime.Date(1, 1, 27, 1) // Feb 28 01:00, year 1
	g := trace.RealTrace(3)
	for _, tc := range []struct {
		name       string
		start, end simtime.Hour
	}{
		{"year", simtime.Date(0, 0, 0, 0), feb28},
		{"month", simtime.Date(1, 1, 0, 0), feb28},
		{"week", 0, 169},
	} {
		horizon := tc.end + 23
		m, keep := New(), New()
		var stamps [24]simtime.Stamp
		var got, want [24]float64
		for h := tc.start; h <= tc.end; h++ {
			for k := range stamps {
				stamps[k] = simtime.Decompose(h + simtime.Hour(k))
			}
			m.IPProfileInto(stamps[:], got[:])
			keep.IPProfileInto(stamps[:], want[:])
			for k := range got {
				if !sameBits(got[k], want[k]) {
					t.Fatalf("%s: profile read of hour %d at round %d = %v, keep-everything %v",
						tc.name, h+simtime.Hour(k), h, got[k], want[k])
				}
			}
			st, a := stamps[0], g.Activity(h)
			ObserveColumn(st, []*Model{m}, []float64{a}, horizon)
			keep.Observe(st, a)
			if got, want := m.IPAt(h), keep.IPAt(h); !sameBits(got, want) {
				t.Fatalf("%s: IPAt(%d) after its observe = %v, keep-everything %v", tc.name, h, got, want)
			}
		}
		switch tc.name {
		case "month":
			if m.SIm == nil {
				t.Fatal("month: the SI_m table the last round reads was never allocated")
			}
		case "week":
			if m.SIw[1] == nil || m.SIw[2] != nil {
				t.Fatal("week: want the Tuesday row the last round reads kept and the Wednesday row skipped")
			}
		}
	}
}

// TestObserveColumnKeepNothingAllocationFree: a column observe whose
// horizon keeps no cell allocates nothing, neither rows nor tables nor
// the scratch that stands in for them.
func TestObserveColumnKeepNothingAllocationFree(t *testing.T) {
	models := []*Model{New(), New(), New()}
	acts := []float64{0, 0.3, 1}
	h := simtime.Hour(5000)
	if n := testing.AllocsPerRun(100, func() {
		ObserveColumn(simtime.Decompose(h), models, acts, h)
		h++
	}); n != 0 {
		t.Fatalf("a keep-nothing column observe allocates %v times", n)
	}
	for i, m := range models {
		for d, row := range m.SIw {
			if row != nil {
				t.Fatalf("model %d allocated its SI_w row %d", i, d)
			}
		}
		if m.SIm != nil {
			t.Fatalf("model %d allocated its SI_m table", i)
		}
		for mo, row := range m.SIy {
			if row != nil {
				t.Fatalf("model %d allocated its SI_y row %d", i, mo)
			}
		}
	}
}
