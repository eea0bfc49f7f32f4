package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"

	"drowsydc/internal/simtime"
)

// TestIPAtMatchesUncachedTwin is the IP-memo tripwire: a model serving
// IPAt from its one-hour memo and an uncaching twin go through one
// seeded interleaving of Observe, ObserveColumn, IPAt reads,
// IPProfileInto, Clone, and decoding another model's version-1 or
// version-3 bytes into the warm model. Every answer must equal the
// twin's IP bit for bit. Reads come in bursts at one hour and in runs
// that alternate between two hours, and half of all hour picks repeat
// the previous pick, so the memo is hit and replaced all the time: a
// missing clear in observe or in either decode path serves a stale IP.
func TestIPAtMatchesUncachedTwin(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 5))
		base := simtime.Hour(rng.IntN(3 * simtime.HoursPerYear))
		last := base
		hour := func() simtime.Hour {
			if rng.IntN(2) == 0 {
				last = base + simtime.Hour(rng.IntN(48))
			}
			return last
		}
		act := func() float64 { return []float64{0, 0.005, 0.3, 1}[rng.IntN(4)] * rng.Float64() }
		m, twin := New(), New()
		donor := New()
		stamps := make([]simtime.Stamp, 24)
		out := make([]float64, 24)
		step := 0
		read := func(h simtime.Hour) {
			t.Helper()
			if got, want := m.IPAt(h), twin.IP(simtime.Decompose(h)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d: IPAt(%d) = %v, uncached twin %v", seed, step, h, got, want)
			}
		}
		for ; step < 3000; step++ {
			switch op := rng.IntN(20); {
			case op < 4:
				st, a := simtime.Decompose(hour()), act()
				m.Observe(st, a)
				twin.Observe(st, a)
			case op < 6:
				st, a, b := simtime.Decompose(hour()), act(), act()
				ObserveColumn(st, []*Model{donor, m}, []float64{b, a}, KeepAll)
				twin.Observe(st, a)
			case op < 10:
				h := hour()
				for k := rng.IntN(8); k >= 0; k-- {
					read(h)
				}
			case op < 12:
				h1, h2 := hour(), base+simtime.Hour(rng.IntN(48))
				for k := rng.IntN(8); k >= 0; k-- {
					read(h1)
					read(h2)
				}
			case op < 14:
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
			case op < 16:
				// The clone inherits the warm memo; the original, mutated
				// afterwards, must not leak into it.
				cp := m.Clone()
				m.Observe(simtime.Decompose(hour()), 1)
				m, twin = cp, twin.Clone()
			default:
				donor.Observe(simtime.Decompose(hour()), act())
				data := encode(t, donor)
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

// TestIPAtSteadyStateAllocationFree: IPAt allocates nothing, on a memo
// miss or a hit.
func TestIPAtSteadyStateAllocationFree(t *testing.T) {
	m := New()
	m.Observe(simtime.Decompose(5), 0.4)
	h := simtime.Hour(5)
	if n := testing.AllocsPerRun(100, func() {
		h = 5 + (h+1)%24
		_ = m.IPAt(h)
		_ = m.IPAt(h)
	}); n != 0 {
		t.Fatalf("IPAt allocates %v times per call", n)
	}
}

// TestModelFootprint pins the model's layout: it fits the 480-byte
// allocation class, the IP memo and the weights share the struct's
// first cache line, so a memo hit reads one line of the model, and the
// row and table pointers a memo miss reads sit in the next three lines.
func TestModelFootprint(t *testing.T) {
	var m Model
	if size := unsafe.Sizeof(m); size > 480 {
		t.Errorf("Model is %d bytes, above the 480-byte allocation class", size)
	}
	for _, f := range []struct {
		name      string
		off, size uintptr
		from, to  uintptr
	}{
		{"memoHour", unsafe.Offsetof(m.memoHour), unsafe.Sizeof(m.memoHour), 0, 64},
		{"memoIP", unsafe.Offsetof(m.memoIP), unsafe.Sizeof(m.memoIP), 0, 64},
		{"W", unsafe.Offsetof(m.W), unsafe.Sizeof(m.W), 0, 64},
		{"SIy", unsafe.Offsetof(m.SIy), unsafe.Sizeof(m.SIy), 64, 256},
		{"SIm", unsafe.Offsetof(m.SIm), unsafe.Sizeof(m.SIm), 64, 256},
		{"SIw", unsafe.Offsetof(m.SIw), unsafe.Sizeof(m.SIw), 64, 256},
	} {
		if f.off < f.from || f.off+f.size > f.to {
			t.Errorf("%s spans bytes %d–%d, outside %d–%d", f.name, f.off, f.off+f.size, f.from, f.to)
		}
	}
}
