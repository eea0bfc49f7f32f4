package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"drowsydc/internal/simtime"
)

// TestIPAtMatchesUncachedTwin is the IP-memo tripwire: a model serving
// IPAt and IPProfileInto from its scores cache and an uncaching twin
// go through one seeded interleaving of Observe, ObserveColumn, cached
// reads, Clone and decoding another model's bytes into the warm model.
// Every cached answer must equal the twin's IP bit for bit. Queries
// and observations share a two-day window, so warm gathers are
// retired by observations of their hour-of-day all the time — a
// missing epoch bump or cache reset serves a stale gather.
func TestIPAtMatchesUncachedTwin(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 5))
		base := simtime.Hour(rng.IntN(3 * simtime.HoursPerYear))
		hour := func() simtime.Hour { return base + simtime.Hour(rng.IntN(48)) }
		act := func() float64 { return []float64{0, 0.005, 0.3, 1}[rng.IntN(4)] * rng.Float64() }
		m, twin := New(), New()
		donor := New()
		stamps := make([]simtime.Stamp, 24)
		out := make([]float64, 24)
		for step := 0; step < 3000; step++ {
			switch op := rng.IntN(20); {
			case op < 4:
				st, a := simtime.Decompose(hour()), act()
				m.Observe(st, a)
				twin.Observe(st, a)
			case op < 6:
				st, a, b := simtime.Decompose(hour()), act(), act()
				ObserveColumn(st, []*Model{donor, m}, []float64{b, a})
				twin.Observe(st, a)
			case op < 14:
				h := hour()
				if got, want := m.IPAt(h), twin.IP(simtime.Decompose(h)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d: IPAt(%d) = %v, uncached twin %v", seed, step, h, got, want)
				}
			case op < 16:
				from := hour()
				for i := range stamps {
					stamps[i] = simtime.Decompose(from + simtime.Hour(i))
				}
				m.IPProfileInto(stamps, out)
				for i, st := range stamps {
					if want := twin.IP(st); math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("seed %d step %d: IPProfileInto[%d] = %v, uncached twin %v", seed, step, i, out[i], want)
					}
				}
			case op < 18:
				// The clone inherits the warm cache; the original, mutated
				// afterwards, must not leak into it.
				cp := m.Clone()
				m.Observe(simtime.Decompose(hour()), 1)
				m, twin = cp, twin.Clone()
			default:
				donor.Observe(simtime.Decompose(hour()), act())
				data, err := donor.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if err := m.UnmarshalBinary(data); err != nil {
					t.Fatal(err)
				}
				if err := twin.UnmarshalBinary(data); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestIPAtSteadyStateAllocationFree: a warm IPAt allocates nothing.
func TestIPAtSteadyStateAllocationFree(t *testing.T) {
	m := New()
	m.Observe(simtime.Decompose(5), 0.4)
	h := simtime.Hour(5)
	if n := testing.AllocsPerRun(100, func() {
		h = 5 + (h+1)%24
		_ = m.IPAt(h)
	}); n != 0 {
		t.Fatalf("IPAt allocates %v times per call", n)
	}
}
