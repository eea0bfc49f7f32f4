package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"drowsydc/internal/simtime"
)

// Batched model observation. The simulation runtime feeds every VM's
// idleness model once per simulated hour; at fleet scale that loop is
// the top CPU item, and almost all of its cost is the four math.Exp
// evaluations of eq. 5's logistic u(|SI|). Two mechanisms cut it down
// without changing a single stored bit:
//
//  1. ObserveColumn applies one calendar stamp to a whole column of
//     models against a pre-gathered activity column, so the per-hour
//     sweep touches models contiguously instead of interleaving model
//     updates with trace-memo lookups.
//
//  2. A quantized saturation table short-circuits u for cells that are
//     provably pinned at ±1. u is only ever *used* as v = a*·u(|SI|)
//     added to (idle) or subtracted from (active) the cell before
//     clamping to [−1, 1]; once a cell sits at or near a bound, the
//     clamp output is exactly ±1.0 for every possible value of u in the
//     cell's quantization bucket, so the exponential need not be
//     evaluated at all. The table stores a conservative lower bound of
//     u per |SI| bucket; the fast path fires only when that bound
//     already forces the clamp, and falls back to the exact math.Exp
//     computation whenever a bucket's uncertainty could change any
//     comparison or stored float.
//
// Exactness argument for the fast path (idle case; active is the
// mirror image): the exact update stores clamp(si + v) with
// v = fl(a* × fl(u(|si|))) > 0. u is strictly decreasing, so for every
// |si| in bucket b, u(|si|) ≥ u(right edge of b). uSatLo[b] is the
// float evaluation of u at the right edge scaled by (1 − 1e−9) — nine
// orders of magnitude more slack than the combined rounding error of
// math.Exp (< 1 ulp) and the handful of float operations between it
// and v, so v ≥ fl(a* × uSatLo[b]) =: t with relative margin ≥ 8e−10.
// The fast path additionally requires t ≥ satMinStep, which makes the
// absolute margin t·8e−10 dominate the half-ulp-of-1 rounding of the
// comparison threshold (1 − t). Under those two conditions,
// si ≥ 1 − t implies si + v ≥ 1 in real arithmetic, float addition
// rounds to a value ≥ 1, and the clamp stores exactly 1.0 — the same
// bits the exact path stores. Cells already at ±1 (the steady state of
// a long-lived mostly-idle VM) always satisfy the test, which is where
// the win comes from. The weight-learning descent still runs on every
// observation — its simplex projection renormalizes the weights even
// when the scores did not move — so only the exponential is skipped,
// never a side effect.
const (
	// satBuckets quantizes |SI| ∈ [0, 1] for the saturation bound.
	satBuckets = 256
	// satMinStep is the smallest update magnitude the fast path
	// accepts: below it the 1e−9 relative slack could be crossed by the
	// absolute rounding of the threshold, so the exact path runs.
	satMinStep = 1e-6
)

// uSatLo[b] lower-bounds u over bucket b's |SI| range.
var uSatLo [satBuckets]float64

// satDisabled forces the exact path; the randomized old-vs-new
// equivalence tests and benchmarks flip it to compare both paths on
// identical inputs. Never set outside tests.
var satDisabled bool

func init() {
	for b := range uSatLo {
		right := float64(b+1) / satBuckets
		if right > 1 {
			right = 1
		}
		uSatLo[b] = u(right) * (1 - 1e-9)
	}
}

// satBucket maps |SI| ∈ [0, 1] onto its quantization bucket.
func satBucket(absSI float64) int {
	b := int(absSI * satBuckets)
	if b >= satBuckets {
		b = satBuckets - 1
	}
	return b
}

// columnMemo caches the last cell update computed per scale during one
// column pass. Fleet-scale populations are dominated by replicated
// groups — VMs replaying the identical trace, whose models therefore
// carry bit-identical histories — so consecutive models in a column
// present the same (si, a*, idle) triple to eq. 5 and the exponential
// needs evaluating once per distinct triple per scale, not once per VM.
// updateCell is a pure function of that triple, and the memo keys on
// exact float equality, so a hit returns the identical bits a fresh
// computation would; any mismatch recomputes. Observe outside a column
// pass (memo nil) is unaffected.
type columnMemo struct {
	entries [NumScales]struct {
		si, aStar, out float64
		idle, ok       bool
	}
	// fast counts cell updates that avoided the exponential (memo hits
	// and saturation short-circuits); exact counts math.Exp fallbacks.
	// Accumulated locally and flushed to the package counters once per
	// column pass, so the hot path carries no atomics.
	fast, exact uint64
}

// update memoizes updateCell across a column pass.
func (cm *columnMemo) update(k int, si, aStar float64, idle bool) float64 {
	e := &cm.entries[k]
	if e.ok && e.si == si && e.aStar == aStar && e.idle == idle {
		cm.fast++
		return e.out
	}
	out, sat := updateCellPath(si, aStar, idle)
	if sat {
		cm.fast++
	} else {
		cm.exact++
	}
	e.si, e.aStar, e.out, e.idle, e.ok = si, aStar, out, idle, true
	return out
}

// Telemetry: cumulative ObserveColumn cell-update path counts across
// the process. Written once per column pass, read by the /metrics
// exporter; they never influence simulation output.
var (
	colFastPath      atomic.Uint64
	colExactFallback atomic.Uint64
)

// ObserveFastPathCount returns how many batched cell updates skipped
// the eq. 5 exponential (cross-model memo hits plus saturation
// short-circuits) since process start.
func ObserveFastPathCount() uint64 { return colFastPath.Load() }

// ObserveExactCount returns how many batched cell updates fell back to
// the exact math.Exp computation since process start.
func ObserveExactCount() uint64 { return colExactFallback.Load() }

// ObserveColumn applies one hourly observation to a column of models:
// models[i] observes acts[i] under the shared calendar stamp st.
// horizon is the last hour at which any IP of the models will be read:
// a missing table whose cell no read up to it can come back to stays
// unallocated (see observe), and KeepAll keeps every cell. With
// KeepAll it is exactly equivalent to calling models[i].Observe(st,
// acts[i]) in order — same panics, same stored bits; with a shorter
// horizon every IP read up to the horizon returns those same bits. It
// exists so the simulation runtime's per-shard observation batch is one
// pass over an activity column: beyond skipping the per-VM trace
// lookups, the pass carries a cross-model update memo (see columnMemo)
// that collapses the eq. 5 exponentials of replicated populations.
// Distinct columns touch disjoint models, so concurrent ObserveColumn
// calls on disjoint slices are race-free.
func ObserveColumn(st simtime.Stamp, models []*Model, acts []float64, horizon simtime.Hour) {
	if len(models) != len(acts) {
		panic(fmt.Sprintf("core: ObserveColumn with %d models but %d activities",
			len(models), len(acts)))
	}
	var memo columnMemo
	for i, m := range models {
		m.observe(st, acts[i], &memo, horizon)
	}
	colFastPath.Add(memo.fast)
	colExactFallback.Add(memo.exact)
}

// updateCell computes one cell's post-observation score: the eq. 5
// update with the saturation fast path described above. si is the
// cell's current score; the result carries the exact bits the plain
// (always-exp) computation would store.
func updateCell(si, aStar float64, idle bool) float64 {
	out, _ := updateCellPath(si, aStar, idle)
	return out
}

// updateCellPath is updateCell plus which path produced the result:
// sat is true when the saturation short-circuit fired (no exponential
// evaluated). The column pass counts paths for telemetry; the bits
// stored are identical either way.
func updateCellPath(si, aStar float64, idle bool) (out float64, sat bool) {
	if !satDisabled {
		if t := aStar * uSatLo[satBucket(math.Abs(si))]; t >= satMinStep {
			if idle && si >= 1-t {
				return 1, true
			}
			if !idle && si <= t-1 {
				return -1, true
			}
		}
	}
	v := aStar * u(math.Abs(si)) // eq. 5
	if idle {
		si += v
	} else {
		si -= v
	}
	return clamp(si, -1, 1), false
}
