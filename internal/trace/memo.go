package trace

import (
	"math"
	"sync"
	"sync/atomic"

	"drowsydc/internal/simtime"
	"drowsydc/internal/timeline"
)

// The simulation reads the same (VM, hour) activity many times per
// simulated hour: the runtime reads it for the busy-hour check, the
// utilization aggregate, request accounting and the model update, and
// the Oasis/Neat policies re-walk trailing windows of it every round.
// The sub-hourly mode reads a VM's burst timeline several times per
// transition hour too. Both are pure functions of the hour (see Func
// and timeline.Expand), so one memo type serves them all: a private
// memo per VM, a store shared by a replicated population across
// concurrently running policy cells, the base store a non-replicated
// group's members overlay (see Source), and a non-replicated member's
// timelines shared by the cells of one scenario call.

// chunkBits sets the chunk length to 2^6 = 64 hours. A chunk is
// computed whole on first touch, so a longer chunk expands hours
// nobody reads (burst timelines are the costly case) and a shorter one
// publishes more often; DESIGN.md ("Memoized activity and timelines")
// has the measurements behind the choice.
const (
	chunkBits = 6
	chunkLen  = 1 << chunkBits
)

// Memo memoizes a pure function of the hour, safe for concurrent use.
//
// Hours are grouped into chunks of chunkLen. A reader that finds its
// chunk unpublished computes the whole chunk, then publishes it under
// the memo's mutex; a reader that lost the race to another goroutine
// discards its copy and returns the published one. The fill is pure,
// so both copies are identical and the race is outcome-free. Published
// chunks are immutable, so a reader never sees a half-written chunk.
//
// The chunk table grows on a miss, under the same mutex, to cover
// whatever hour is read: no horizon is ever declared, and every hour
// ≥ 0 is memoized. Growth copies the old table's pointers before the
// new table is published, and a chunk is only ever published under
// the mutex, so no publication is lost to a concurrent growth. The
// steady-state read is two atomic loads (table, chunk) and an index.
// Negative hours are not memoized: they evaluate the fill directly,
// so its error surfaces exactly as without the memo.
type Memo[T any] struct {
	fill func(simtime.Hour) T
	// seed and src are the expansion seed and the activity source of a
	// timeline memo (see NewTimelines); zero for every other memo.
	seed  uint64
	src   Source
	mu    sync.Mutex
	table atomic.Pointer[[]atomic.Pointer[[chunkLen]T]]
}

// newMemo returns an empty memo of fill, which must be a pure function
// of the hour.
func newMemo[T any](fill func(simtime.Hour) T) *Memo[T] {
	return &Memo[T]{fill: fill}
}

// At returns the fill's value at hour h, computing and publishing the
// enclosing chunk on first touch.
func (m *Memo[T]) At(h simtime.Hour) T {
	if h < 0 {
		return m.fill(h)
	}
	return m.chunk(h)[h&(chunkLen-1)]
}

// Ref is At by reference: it points into the published chunk, which is
// immutable, so the caller must not write through it. It spares large
// values (a timeline.Hour) a copy per read. A negative hour points at a
// fresh evaluation of the fill.
func (m *Memo[T]) Ref(h simtime.Hour) *T {
	if h < 0 {
		v := m.fill(h)
		return &v
	}
	return &m.chunk(h)[h&(chunkLen-1)]
}

// chunk returns the published chunk holding hour h ≥ 0, computing and
// publishing it on first touch.
func (m *Memo[T]) chunk(h simtime.Hour) *[chunkLen]T {
	ci := int(h >> chunkBits)
	if t := m.table.Load(); t != nil && ci < len(*t) {
		if c := (*t)[ci].Load(); c != nil {
			return c
		}
	}
	return m.publish(ci)
}

// publishes counts chunk publications across every memo in the process
// (telemetry; the losers of a publication race are not counted).
var publishes atomic.Uint64

// PublishCount returns how many memo chunks have been computed and
// published since process start.
func PublishCount() uint64 { return publishes.Load() }

// publish computes chunk ci and publishes it, returning whichever copy
// was published first.
func (m *Memo[T]) publish(ci int) *[chunkLen]T {
	c := new([chunkLen]T)
	first := simtime.Hour(ci) << chunkBits
	for i := range c {
		c[i] = m.fill(first + simtime.Hour(i))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var t []atomic.Pointer[[chunkLen]T]
	if p := m.table.Load(); p != nil {
		t = *p
	}
	if ci >= len(t) {
		grown := make([]atomic.Pointer[[chunkLen]T], max(ci+1, 2*len(t)))
		for i := range t {
			grown[i].Store(t[i].Load())
		}
		t = grown
		m.table.Store(&grown)
	}
	if won := t[ci].Load(); won != nil {
		return won
	}
	t[ci].Store(c)
	publishes.Add(1)
	return c
}

// Seed returns the expansion seed of a memo built by NewTimelines, and
// zero for any other memo. VM wiring compares it with the seed the VM
// reports.
func (m *Memo[T]) Seed() uint64 { return m.seed }

// Expands reports whether a memo built by NewTimelines expands src's
// levels: its source reads the same base memo through the same overlay
// seed, shift and jitter amount. Sources are pure, so two that agree
// on all four read bit-identical levels. VM wiring checks it.
func (m *Memo[T]) Expands(src Source) bool {
	a, b := m.src, src
	return a.base == b.base && a.seed == b.seed && a.shift == b.shift &&
		math.Float64bits(a.amount) == math.Float64bits(b.amount)
}

// NewTimelines returns the memo of src's within-hour burst timelines
// expanded with seed: hour h holds timeline.Expand(seed, h,
// src.Activity(h)), so timelines and levels can never disagree. A
// chunk holds its 64 hours inline, 1,152 bytes; read them through Ref.
func NewTimelines(seed uint64, src Source) *Memo[timeline.Hour] {
	m := newMemo(func(h simtime.Hour) timeline.Hour {
		return timeline.Expand(seed, h, src.Activity(h))
	})
	m.seed, m.src = seed, src
	return m
}

// Source is one VM's hourly activity: a memo of a base generator read
// through the member's phase shift and jitter overlay. Replicated
// members and private VMs carry the zero overlay, which reads the memo
// directly. A non-replicated scenario group memoizes its base trace
// once and gives each member an overlay (see Variant), so per-member
// state is O(1) while every member's levels stay bit-identical to its
// own variant generator: the overlay replays VariantJitter's float
// operations exactly.
//
// One boundary needs care: the base memo holds clamped levels, and
// clamping is lossy exactly at the boundaries. A stored 0 is safe — a
// non-positive raw level jitters to 0 either way — but a stored 1 may
// hide a raw level above 1 whose jittered clamp differs from the
// clamp's jitter. Saturated base hours therefore evaluate the member's
// generator directly (pure, hence still bit-identical); every interior
// level takes the O(1) overlay.
type Source struct {
	base *Memo[float64]
	// gen is the member's generator: the base generator itself under
	// the zero overlay.
	gen    Generator
	seed   uint64
	shift  int
	amount float64
}

// NewSource returns g's activity read through a new memo, with the
// zero overlay.
func NewSource(g Generator) Source {
	return Source{base: newMemo(g.Activity), gen: g}
}

// Variant returns the source of VariantJitter(g, seed, shiftHours,
// amount), where g is s's generator: it reads s's memo through the
// member's shift and jitter. s must carry the zero overlay.
func (s *Source) Variant(seed uint64, shiftHours int, amount float64) Source {
	return Source{base: s.base, gen: VariantJitter(s.gen, seed, shiftHours, amount),
		seed: seed, shift: shiftHours, amount: amount}
}

// Activity returns the activity level for hour h.
func (s *Source) Activity(h simtime.Hour) float64 {
	if h < 0 {
		return s.gen.Activity(h)
	}
	// Shift's hour remap: the member's level at h derives from the base
	// level at h−shift, wrapped within the week before hour 0.
	shifted := int64(h) - int64(s.shift)
	if shifted < 0 {
		shifted += (int64(s.shift)/(7*24) + 1) * 7 * 24
	}
	vb := s.base.At(simtime.Hour(shifted))
	if s.amount == 0 {
		return vb // zero overlay or a pure phase shift
	}
	if vb == 0 {
		// A raw base level ≤ 0 jitters to 0 whichever side of the
		// clamp the jitter lands: Jitter passes 0 (and −0) through as
		// 0, and a negative level times a positive factor clamps back
		// to 0.
		return 0
	}
	if vb == 1 {
		// Saturated: the raw level may exceed 1 and jitter differently
		// than its clamp. Replay the member's generator directly.
		return s.gen.Activity(h)
	}
	// Interior levels round-trip the clamp unchanged, so this is
	// exactly Jitter's arithmetic on exactly the raw base level.
	f := 1 + s.amount*(2*hashUnit(s.seed, h)-1)
	return clamp01(vb * f)
}
