package metrics

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
)

// refLatency is the map-backed multiset the sorted runs replaced, kept
// as the reference for the randomized equivalence test.
type refLatency struct {
	counts map[float64]int64
	total  int64
}

func (r *refLatency) recordN(v float64, n int) {
	if n <= 0 {
		return
	}
	r.counts[v] += int64(n)
	r.total += int64(n)
}

func (r *refLatency) merge(o *refLatency) {
	for v, n := range o.counts {
		r.counts[v] += n
	}
	r.total += o.total
}

func (r *refLatency) quantile(q float64) float64 {
	if r.total == 0 {
		return 0
	}
	values := make([]float64, 0, len(r.counts))
	for v := range r.counts {
		values = append(values, v)
	}
	sort.Float64s(values)
	rank := int64(q * float64(r.total-1))
	var cum int64
	for _, v := range values {
		cum += r.counts[v]
		if rank < cum {
			return v
		}
	}
	return values[len(values)-1]
}

func (r *refLatency) export() []LatencySample {
	out := make([]LatencySample, 0, len(r.counts))
	for v, n := range r.counts {
		out = append(out, LatencySample{Seconds: v, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seconds < out[j].Seconds })
	return out
}

// TestLatencyMatchesMapReference feeds seeded random samples — a few
// repeated service times plus scattered wake penalties — into several
// interleaved collectors and their map references, then checks that
// Quantile, Export, merges of the collectors and the checkpoint path
// (RecordN replay of Export) agree with the reference exactly.
func TestLatencyMatchesMapReference(t *testing.T) {
	qs := []float64{0, 0.5, 0.9, 0.99, 1}
	for seed := uint64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewPCG(seed, 3))
		values := []float64{0.05, 0.85, 0.05 + 0.8 + 2, 0, 0.2, 0.2000001}
		for i := 0; i < 6; i++ {
			values = append(values, rng.Float64()*3)
		}
		const n = 4
		var ls [n]*LatencyStats
		var refs [n]*refLatency
		for i := range ls {
			ls[i] = NewLatencyStats(0.2)
			refs[i] = &refLatency{counts: map[float64]int64{}}
		}
		for step := 0; step < 200; step++ {
			i := rng.IntN(n)
			v, k := values[rng.IntN(len(values))], rng.IntN(300)
			ls[i].RecordN(v, k)
			refs[i].recordN(v, k)
		}
		check := func(what string, l *LatencyStats, r *refLatency) {
			t.Helper()
			if l.Count() != r.total {
				t.Fatalf("seed %d %s: Count = %d, reference %d", seed, what, l.Count(), r.total)
			}
			for _, q := range qs {
				if got, want := l.Quantile(q), r.quantile(q); got != want {
					t.Fatalf("seed %d %s: Quantile(%v) = %v, reference %v", seed, what, q, got, want)
				}
			}
			if got, want := l.Export(), r.export(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: Export = %v, reference %v", seed, what, got, want)
			}
		}
		for i := range ls {
			check("collector", ls[i], refs[i])
		}
		merged := NewLatencyStats(0.2)
		refMerged := &refLatency{counts: map[float64]int64{}}
		for _, i := range rng.Perm(n) {
			merged.Merge(ls[i])
			refMerged.merge(refs[i])
		}
		check("merge", merged, refMerged)
		replay := NewLatencyStats(0.2)
		for _, s := range merged.Export() {
			replay.RecordN(s.Seconds, int(s.Count))
		}
		check("replay", replay, refMerged)
		if replay.WithinSLA() != merged.WithinSLA() || replay.Max() != merged.Max() {
			t.Fatalf("seed %d: replay within-SLA/max = %d/%v, merged %d/%v", seed,
				replay.WithinSLA(), replay.Max(), merged.WithinSLA(), merged.Max())
		}
	}
}
