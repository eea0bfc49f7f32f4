package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"drowsydc/internal/simtime"
)

// Batched model observation. The simulation runtime feeds every VM's
// idleness model once per simulated hour; at fleet scale that loop is
// the top CPU item, and most of its cost is the four math.Exp
// evaluations of eq. 5's logistic u(|SI|). Three things cut it down
// without changing a single stored bit:
//
//  1. ObserveColumn applies one calendar stamp to a whole column of
//     models against a pre-gathered activity column, so the per-hour
//     sweep touches models contiguously instead of interleaving model
//     updates with trace-memo lookups.
//
//  2. A cross-model memo (columnMemo) collapses the exponentials of
//     replicated models that present the same update in one column.
//
//  3. A cell at ±0 takes u0, the constant u(0), instead of the
//     exponential. Every cell of a fresh model starts at zero, and so
//     does every update a stored-cell skip sends to the scratch (see
//     observe), so in short runs most updates are at zero.

// u0 is u(0), the update coefficient of a cell at ±0 (|−0| is +0).
var u0 = u(0)

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
	// and zero cells); exact counts math.Exp evaluations.
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
	out := updateCell(si, aStar, idle)
	if si == 0 {
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
// the eq. 5 exponential (cross-model memo hits plus cells at zero)
// since process start.
func ObserveFastPathCount() uint64 { return colFastPath.Load() }

// ObserveExactCount returns how many batched cell updates evaluated
// the eq. 5 exponential since process start.
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

// updateCell computes one cell's post-observation score, the eq. 5
// update of a cell holding si. A cell at ±0 takes u0 in place of
// u(|si|), the same value, so the result has the bits of the
// always-exp computation.
func updateCell(si, aStar float64, idle bool) float64 {
	uSI := u0
	if si != 0 {
		uSI = u(math.Abs(si))
	}
	v := aStar * uSI // eq. 5
	if idle {
		si += v
	} else {
		si -= v
	}
	return clamp(si, -1, 1)
}
