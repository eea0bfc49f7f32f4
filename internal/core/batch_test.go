package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"drowsydc/internal/simtime"
)

// modelBitsEqual compares every stored float of two models exactly,
// including the lazily allocated tables and the learned weights.
func modelBitsEqual(a, b *Model) bool {
	if a.SId != b.SId || a.SIw != b.SIw || a.W != b.W {
		return false
	}
	same := func(ta, tb *SIMonth) bool {
		return ta == nil && tb == nil || ta != nil && tb != nil && *ta == *tb
	}
	if !same(a.SIm, b.SIm) {
		return false
	}
	for mo := range a.SIy {
		if !same(a.SIy[mo], b.SIy[mo]) {
			return false
		}
	}
	return a.activeSum == b.activeSum && a.activeCount == b.activeCount &&
		a.hoursObserved == b.hoursObserved && a.hoursIdle == b.hoursIdle
}

// randomActivity draws an activity level biased toward the regimes that
// matter: exact zeros, sub-floor noise, and long idle streaks that
// drive SI cells into saturation — the fast path's territory.
func randomActivity(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return DefaultNoiseFloor * rng.Float64() // sub-floor noise
	case 2, 3:
		return DefaultNoiseFloor + (1-DefaultNoiseFloor)*rng.Float64() // active
	default:
		return 0 // idle hour (the dominant LLMI regime)
	}
}

// TestObserveSaturationTableBitIdentical drives pairs of models through
// long randomized observation sequences, one with the saturation table
// and one forced down the always-exp path, and requires every stored
// float to match bit for bit after every single observation — the
// old-vs-new discipline of the oasis index tests.
func TestObserveSaturationTableBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5a7))
	for trial := 0; trial < 8; trial++ {
		fast, exact := New(), New()
		start := simtime.Hour(rng.Intn(simtime.HoursPerYear))
		hours := 2000 + rng.Intn(3000)
		for i := 0; i < hours; i++ {
			st := simtime.Decompose(start + simtime.Hour(i))
			a := randomActivity(rng)
			fast.Observe(st, a)
			satDisabled = true
			exact.Observe(st, a)
			satDisabled = false
			if !modelBitsEqual(fast, exact) {
				t.Fatalf("trial %d: models diverge after hour %d (activity %v)", trial, i, a)
			}
		}
	}
}

// TestObserveSaturationTableSaturated pushes cells all the way to the
// ±1 bounds and checks the fast path agrees with the exact path at and
// across the saturation boundary, where its threshold arithmetic is
// sharpest. A cell only moves when its calendar coordinate recurs (and
// by at most Sigma·u ≈ 6e−5 per update), so advancing the clock would
// take decades of simulated time; instead the same stamp is observed
// repeatedly, which drives exactly that stamp's four cells to the
// bounds within tens of thousands of observations.
func TestObserveSaturationTableSaturated(t *testing.T) {
	st := simtime.Decompose(simtime.Hour(13))
	fast, exact := New(), New()
	step := func(i int, a float64) {
		fast.Observe(st, a)
		satDisabled = true
		exact.Observe(st, a)
		satDisabled = false
		if !modelBitsEqual(fast, exact) {
			t.Fatalf("models diverge at observation %d (activity %v, SI_d=%v)",
				i, a, exact.SId[st.HourOfDay])
		}
	}
	for i := 0; i < 25000; i++ {
		step(i, 0)
	}
	if fast.SId[st.HourOfDay] != 1 {
		t.Fatalf("SI_d = %v after the idle run, want saturation at 1", fast.SId[st.HourOfDay])
	}
	// The pinned regime must genuinely take the fast path, not agree by
	// accident of both sides computing exp: check its guard holds here.
	aStar := Sigma * fast.MeanActiveLevel()
	if thr := aStar * uSatLo[satBucket(1)]; thr < satMinStep {
		t.Fatalf("fast path dormant at saturation: t=%v < %v", thr, satMinStep)
	}
	// Full activity drags the cells off +1, across zero, down to −1.
	for i := 0; i < 60000; i++ {
		step(i, 1)
	}
	if fast.SId[st.HourOfDay] != -1 {
		t.Fatalf("SI_d = %v after the active run, want saturation at -1", fast.SId[st.HourOfDay])
	}
}

// TestObserveColumnReplicatedMemo exercises the cross-model memo on the
// population shape it exists for: replica groups with identical
// trajectories, interleaved in the column so the memo alternates
// between hits (within a group's run of the sweep) and misses (group
// boundaries). Every stored bit must match the memo-free per-model
// loop.
func TestObserveColumnReplicatedMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9e9))
	const n, groups = 48, 3
	batch := make([]*Model, n)
	loop := make([]*Model, n)
	for i := range batch {
		batch[i], loop[i] = New(), New()
	}
	acts := make([]float64, n)
	var groupAct [groups]float64
	for h := simtime.Hour(0); h < 1500; h++ {
		st := simtime.Decompose(h)
		for g := range groupAct {
			groupAct[g] = randomActivity(rng)
		}
		for i := range acts {
			acts[i] = groupAct[i%groups]
		}
		ObserveColumn(st, batch, acts, KeepAll)
		for i, m := range loop {
			m.Observe(st, acts[i])
		}
	}
	for i := range batch {
		if !modelBitsEqual(batch[i], loop[i]) {
			t.Fatalf("replica %d diverges between memoized column and plain loop", i)
		}
	}
}

// TestUSatLoIsLowerBound pins the table's defining property: every
// bucket's stored bound sits strictly below u at any point of the
// bucket (u is decreasing, so the right edge is the infimum).
func TestUSatLoIsLowerBound(t *testing.T) {
	for b := 0; b < satBuckets; b++ {
		right := float64(b+1) / satBuckets
		if right > 1 {
			right = 1
		}
		if uSatLo[b] >= u(right) {
			t.Fatalf("bucket %d: bound %v not below u(right)=%v", b, uSatLo[b], u(right))
		}
		left := float64(b) / satBuckets
		if uSatLo[b] >= u(left) {
			t.Fatalf("bucket %d: bound %v not below u(left)=%v", b, uSatLo[b], u(left))
		}
	}
}

// TestObserveColumnMatchesLoop checks the batch entry point is exactly
// the per-model loop: same stored bits, same panic on a bad activity,
// and a length mismatch is rejected.
func TestObserveColumnMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc01))
	const n = 64
	batch := make([]*Model, n)
	loop := make([]*Model, n)
	for i := range batch {
		batch[i], loop[i] = New(), New()
	}
	acts := make([]float64, n)
	for h := simtime.Hour(0); h < 500; h++ {
		st := simtime.Decompose(h)
		for i := range acts {
			acts[i] = randomActivity(rng)
		}
		ObserveColumn(st, batch, acts, KeepAll)
		for i, m := range loop {
			m.Observe(st, acts[i])
		}
	}
	for i := range batch {
		if !modelBitsEqual(batch[i], loop[i]) {
			t.Fatalf("model %d diverges between column and loop observation", i)
		}
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("length mismatch", func() {
		ObserveColumn(simtime.Decompose(0), batch, acts[:n-1], KeepAll)
	})
	mustPanic("bad activity", func() {
		ObserveColumn(simtime.Decompose(0), []*Model{New()}, []float64{math.NaN()}, KeepAll)
	})
}

// TestObserveColumnConcurrentShards exercises the sharded-use contract
// under the race detector: disjoint column slices observed from
// concurrent goroutines, then compared against a serial replay.
func TestObserveColumnConcurrentShards(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd15))
	const n, shards = 96, 8
	conc := make([]*Model, n)
	serial := make([]*Model, n)
	for i := range conc {
		conc[i], serial[i] = New(), New()
	}
	acts := make([][]float64, 200)
	for h := range acts {
		acts[h] = make([]float64, n)
		for i := range acts[h] {
			acts[h][i] = randomActivity(rng)
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range acts {
				ObserveColumn(simtime.Decompose(simtime.Hour(h)), conc[lo:hi], acts[h][lo:hi], KeepAll)
			}
		}()
	}
	wg.Wait()
	for h := range acts {
		ObserveColumn(simtime.Decompose(simtime.Hour(h)), serial, acts[h], KeepAll)
	}
	for i := range conc {
		if !modelBitsEqual(conc[i], serial[i]) {
			t.Fatalf("model %d diverges between concurrent and serial columns", i)
		}
	}
}

// saturatedColumn builds a column of models in the LLMI steady state —
// every cell pinned at +1, the asymptote of a decades-idle VM — with
// distinct mean active levels so each model presents a distinct a* and
// the cross-model memo never hits: what remains is purely the
// saturation table. Cells are pinned directly (an observation-driven
// approach would need ~50 simulated years per cell; see the cadence
// note on TestObserveSaturationTableSaturated).
func saturatedColumn(n int) ([]*Model, []float64) {
	saturated := func() *SIMonth {
		t := new(SIMonth)
		for d := range t {
			for h := range t[d] {
				t[d][h] = 1
			}
		}
		return t
	}
	models := make([]*Model, n)
	for i := range models {
		m := New()
		for h := range m.SId {
			m.SId[h] = 1
		}
		for d := range m.SIw {
			for h := range m.SIw[d] {
				m.SIw[d][h] = 1
			}
		}
		m.SIm = saturated()
		for mo := range m.SIy {
			m.SIy[mo] = saturated()
		}
		m.activeSum = 0.5 + float64(i)*1e-6 // distinct a* per model: defeat the memo
		m.activeCount = 1
		models[i] = m
	}
	return models, make([]float64, n)
}

// replicatedColumn builds a column of n bit-identical models — a
// replica group partway through training, the fleet-scale population
// shape the cross-model memo collapses.
func replicatedColumn(n int) ([]*Model, []float64) {
	proto := New()
	rng := rand.New(rand.NewSource(0xbe7))
	for h := simtime.Hour(0); h < 2000; h++ {
		proto.Observe(simtime.Decompose(h), randomActivity(rng))
	}
	models := make([]*Model, n)
	for i := range models {
		models[i] = proto.Clone()
	}
	return models, make([]float64, n)
}

// BenchmarkModelObserveBatch measures the batched hourly update on
// 512-model columns in the two regimes the batch path accelerates:
//
//   - saturated: cells pinned at ±1 with per-model-distinct a*, so the
//     quantized saturation table (vs. the forced always-exp path) is
//     isolated;
//   - replicated: identical models, so the cross-model memo (vs. the
//     memo-free per-model loop) is isolated.
func BenchmarkModelObserveBatch(b *testing.B) {
	// Two column widths: 512 models stride ~40 MB of SI tables per pass
	// (memory-bound — the regime a fleet shard sees), 16 models stay
	// cache-resident (compute-bound — isolates the arithmetic the table
	// removes; expect the larger relative win here).
	for _, width := range []struct {
		name string
		n    int
	}{{"saturated", 512}, {"saturated-hot", 16}} {
		b.Run(width.name, func(b *testing.B) {
			for _, mode := range []struct {
				name    string
				disable bool
			}{{"exp-table", false}, {"exact", true}} {
				b.Run(mode.name, func(b *testing.B) {
					models, acts := saturatedColumn(width.n)
					satDisabled = mode.disable
					defer func() { satDisabled = false }()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						st := simtime.Decompose(simtime.Hour(i % simtime.HoursPerYear))
						ObserveColumn(st, models, acts, KeepAll)
					}
				})
			}
		})
	}
	b.Run("replicated", func(b *testing.B) {
		for _, mode := range []struct {
			name string
			memo bool
		}{{"memo-column", true}, {"plain-loop", false}} {
			b.Run(mode.name, func(b *testing.B) {
				models, acts := replicatedColumn(512)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st := simtime.Decompose(simtime.Hour(i % simtime.HoursPerYear))
					if mode.memo {
						ObserveColumn(st, models, acts, KeepAll)
					} else {
						for j, m := range models {
							m.Observe(st, acts[j])
						}
					}
				}
			})
		}
	})
}
