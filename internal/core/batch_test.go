package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"drowsydc/internal/simtime"
)

// modelBitsEqual compares every stored float of two models exactly,
// including the lazily allocated rows and tables and the learned
// weights.
func modelBitsEqual(a, b *Model) bool {
	if a.SId != b.SId || a.W != b.W {
		return false
	}
	for d := range a.SIw {
		if !sameRow(a.SIw[d], b.SIw[d]) {
			return false
		}
	}
	if !sameRow(a.SIm, b.SIm) {
		return false
	}
	for mo := range a.SIy {
		if !sameRow(a.SIy[mo], b.SIy[mo]) {
			return false
		}
	}
	return a.activeSum == b.activeSum && a.activeCount == b.activeCount &&
		a.hoursObserved == b.hoursObserved && a.hoursIdle == b.hoursIdle
}

// sameRow reports whether two lazily allocated rows are both absent, or
// both present with equal scores.
func sameRow[T SIDay | SIMonth](a, b *T) bool {
	return a == nil && b == nil || a != nil && b != nil && *a == *b
}

// randomActivity draws an activity level biased toward the regimes that
// matter: exact zeros, sub-floor noise, and long idle streaks.
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

// expUpdate is the eq. 5 cell update with the exponential always
// evaluated: the reference updateCell must match bit for bit.
func expUpdate(si, aStar float64, idle bool) float64 {
	v := aStar * u(math.Abs(si))
	if idle {
		si += v
	} else {
		si -= v
	}
	return clamp(si, -1, 1)
}

// TestUpdateCellMatchesAlwaysExp pins the zero-cell shortcut to the
// always-exp update on both sides of zero: ±0, the smallest magnitudes
// around it, interior scores and the bounds, under random a* and both
// directions.
func TestUpdateCellMatchesAlwaysExp(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0e5))
	sis := []float64{0, math.Copysign(0, -1), 1e-300, -1e-300, 5e-324, -5e-324,
		1e-9, -1e-9, 0.25, -0.25, Beta, -Beta, 0.9999, -0.9999, 1, -1}
	for range 200 {
		aStar := Sigma * rng.Float64()
		for _, si := range sis {
			for _, idle := range []bool{true, false} {
				got, want := updateCell(si, aStar, idle), expUpdate(si, aStar, idle)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("updateCell(%v, %v, idle=%v) = %v, always-exp %v", si, aStar, idle, got, want)
				}
			}
		}
	}
}

// TestObserveSaturationTableBitIdentical drives models through long
// randomized observation sequences and requires every one of the four
// cells an observation writes to hold, after it, exactly the bits the
// always-exp update gives from the cell's prior score. The weights
// learn from those cells, so they follow.
func TestObserveSaturationTableBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5a7))
	for trial := 0; trial < 8; trial++ {
		m := New()
		start := simtime.Hour(rng.Intn(simtime.HoursPerYear))
		hours := 2000 + rng.Intn(3000)
		for i := 0; i < hours; i++ {
			st := simtime.Decompose(start + simtime.Hour(i))
			a := randomActivity(rng)
			idle := a < m.opts.NoiseFloor
			aStar := Sigma * a
			if idle {
				aStar = Sigma * m.MeanActiveLevel()
			}
			before := m.scores(st)
			m.Observe(st, a)
			after := m.scores(st)
			for k := range after {
				if want := expUpdate(before[k], aStar, idle); math.Float64bits(after[k]) != math.Float64bits(want) {
					t.Fatalf("trial %d hour %d scale %d: cell %v → %v, always-exp %v", trial, i, k, before[k], after[k], want)
				}
			}
		}
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

// distinctActs returns n activity levels drawn from randomActivity
// with active levels per model distinct, so the cross-model memo
// rarely hits and the per-cell update cost shows.
func distinctActs(n int) []float64 {
	rng := rand.New(rand.NewSource(0xac7))
	acts := make([]float64, n)
	for i := range acts {
		acts[i] = randomActivity(rng)
	}
	return acts
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
// 512-model columns in the regimes runs see:
//
//   - fresh-week: fresh models observed over a one-week run under its
//     read horizon (last hour + 23), as in a week-long fleet run; the
//     column is replaced by fresh models after each simulated week.
//     Most cells sit at zero or are skipped, so the zero-cell update
//     carries the pass;
//   - month-trained: models trained on a month of a real trace,
//     observed under KeepAll with per-model activity, so most updates
//     evaluate the exponential;
//   - replicated: identical models, so the cross-model memo (vs. the
//     memo-free per-model loop) is isolated.
func BenchmarkModelObserveBatch(b *testing.B) {
	const n, week = 512, 7 * simtime.HoursPerDay
	fresh := func() []*Model {
		models := make([]*Model, n)
		for i := range models {
			models[i] = New()
		}
		return models
	}
	b.Run("fresh-week", func(b *testing.B) {
		models, acts := fresh(), distinctActs(n)
		const horizon = week - 1 + 23
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := simtime.Hour(i % week)
			if h == 0 && i > 0 {
				b.StopTimer()
				models = fresh()
				b.StartTimer()
			}
			ObserveColumn(simtime.Decompose(h), models, acts, horizon)
		}
	})
	b.Run("month-trained", func(b *testing.B) {
		proto := trainedModel(31 * simtime.HoursPerDay)
		models := make([]*Model, n)
		for i := range models {
			models[i] = proto.Clone()
		}
		acts := distinctActs(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := simtime.Decompose(simtime.Hour(31*simtime.HoursPerDay + i%simtime.HoursPerYear))
			ObserveColumn(st, models, acts, KeepAll)
		}
	})
	b.Run("replicated", func(b *testing.B) {
		for _, mode := range []struct {
			name string
			memo bool
		}{{"memo-column", true}, {"plain-loop", false}} {
			b.Run(mode.name, func(b *testing.B) {
				models, acts := replicatedColumn(n)
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
