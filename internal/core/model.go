// Package core implements the paper's primary contribution: the per-VM
// idleness model (IM) and idleness probability (IP) of Drowsy-DC §III.
//
// The model maintains synthesized idleness (SI) scores at four calendar
// scales — hour of day (SI_d), day of week (SI_w), day of month (SI_m)
// and month of year (SI_y) — plus four learned weights. Each simulated
// hour the scores associated with that hour are nudged toward idleness
// (+) or activity (−) by an update value that depends on the VM's
// activity level and on how extreme the score already is (eqs. 2–5), and
// the weights are corrected by steepest descent on the quadratic error
// between the IP predicted with the old state and the IP given full
// knowledge of the hour (eqs. 6–8).
//
// From the model, IP(h, d_w, d_m, m) = wᵀ·SI is the likelihood that the
// VM is idle during the given future hour. SI scores live in [−1, 1]
// (positive = idle); with the weights kept on the probability simplex the
// IP is also in [−1, 1], and the normalized form (IP+1)/2 is the
// probability quoted by the paper ("predicted idle — its IP is higher
// than 50 %" ⇔ IP > 0).
package core

import (
	"fmt"
	"math"

	"drowsydc/internal/simtime"
)

// Constants fixed empirically by the paper (§III-C).
const (
	// Alpha controls how fast the update coefficient u decays once a
	// score passes the Beta threshold.
	Alpha = 0.7
	// Beta is the |SI| threshold above which a score is considered to
	// start reaching extreme values.
	Beta = 0.5
	// Sigma scales activity to the SI bounds: a VM must be constantly
	// active (a_h = 1) for a full year to drive SI_d from 0 to −1
	// (ignoring the u coefficient). Sigma = 1/(365×24).
	Sigma = 1.0 / float64(simtime.HoursPerYear)
	// DefaultNoiseFloor filters out very short scheduling quanta: hours
	// with activity below this level count as idle (§III-C "noise — are
	// filtered out").
	DefaultNoiseFloor = 0.01
)

// Number of scale weights: day, week, month, year.
const NumScales = 4

// Scale indices into weight and score vectors.
const (
	ScaleDay = iota
	ScaleWeek
	ScaleMonth
	ScaleYear
)

// Options tune the parts of the model the paper leaves configurable.
type Options struct {
	// NoiseFloor is the activity level below which an hour counts as
	// idle. Zero selects DefaultNoiseFloor.
	NoiseFloor float64
	// DescentRate is the steepest-descent step size for weight learning.
	// The descent is gradient-normalized (NLMS form) because Q's natural
	// scale is σ² ≈ 1.3e-8 — a raw gradient step would need an absurd
	// rate constant to learn within the VM's lifetime. Rates in (0, 1]
	// are stable. Zero selects 0.1.
	DescentRate float64
	// DescentSteps is the number of descent iterations per hourly
	// update. The paper notes the precision "can be set to not incur any
	// overhead"; with the normalized step a single iteration converges
	// well. Zero selects 1.
	DescentSteps int
}

func (o Options) withDefaults() Options {
	if o.NoiseFloor == 0 {
		o.NoiseFloor = DefaultNoiseFloor
	}
	if o.DescentRate == 0 {
		o.DescentRate = 0.1
	}
	if o.DescentSteps == 0 {
		o.DescentSteps = 1
	}
	return o
}

// Model is a VM's idleness model. The zero value is not ready to use;
// construct with New. Model is not safe for concurrent use — IPAt
// writes its one-hour IP memo; each VM owns exactly one, and the
// simulation runtime reads and updates it only from the shard owning
// the VM's host or from its serial phases, so no locking is needed.
type Model struct {
	// The fields every read or observation touches come first, so a
	// memo hit reads only the model's first cache line; the table
	// pointers a memo miss reads fill the next three, and the other
	// fixed fields observe reads (the counters and the options) follow
	// them. TestModelFootprint pins the layout.

	// memoHour and memoIP are IPAt's one-hour memo: memoIP is the IP at
	// hour memoHour−1, and memoHour 0 marks the memo empty (hours are
	// non-negative).
	memoHour simtime.Hour
	memoIP   float64

	// W holds the scale weights (w_d, w_w, w_m, w_y), kept on the
	// probability simplex.
	W [NumScales]float64

	// Running mean of activity over past active hours (ā in eq. 2).
	activeSum   float64
	activeCount int64

	// SI scores per calendar scale; all in [−1, 1], positive = idle.
	// Only the hour-of-day table (SId, 24 floats) is stored inline. The
	// week scale's day rows (SIw, 7 of 24 floats), the day-of-month
	// table (SIm, 31×24 floats) and the year scale's month rows (SIy,
	// 12 of 31×24 floats) are allocated on a write that a read can come
	// back to: a cell is next read one week (168 hours), one month (at
	// least 672 hours) or one year (8,760 hours) after its write, so in
	// a run whose read horizon ends sooner, observe leaves the row or
	// table nil (see observe). A nil row or table reads as all zeros,
	// exactly the undetermined state a fresh one holds.
	SIy [simtime.MonthsPerYear]*SIMonth
	SIm *SIMonth
	SIw [simtime.DaysPerWeek]*SIDay

	// Observation counters, exposed for diagnostics.
	hoursObserved int64
	hoursIdle     int64

	opts Options

	// SId is stored inline: each of its cells is read back a day after
	// its write.
	SId SIDay
}

// SIDay is a row of SI scores by hour of day: the hour-of-day scale's
// table, and one day row of the week scale's.
type SIDay [simtime.HoursPerDay]float64

// SIMonth is a table of SI scores by day of month and hour of day: the
// day-of-month scale's table, and one month row of the year scale's.
type SIMonth [simtime.DaysPerMonth][simtime.HoursPerDay]float64

// Read-back gaps: a cell written at hour h is next read at h plus its
// scale's gap or later. Weekdays run on across year ends, so two hours
// share a day of week and an hour of day exactly when they lie a
// multiple of 168 hours apart; the calendar repeats every HoursPerYear
// hours; and the shortest gap between two hours that share a day of
// month and an hour of day is 28 days (February).
const (
	weekGap  = simtime.DaysPerWeek * simtime.HoursPerDay
	monthGap = 28 * simtime.HoursPerDay
	yearGap  = simtime.HoursPerYear
)

// KeepAll is the read horizon of a model whose every cell may be read
// back: Model.Observe passes it, and so do callers of ObserveColumn
// whose models outlive the hours they observe.
const KeepAll = simtime.Hour(math.MaxInt64)

// New returns a fresh model: all SI scores zero (undetermined behaviour)
// and uniform weights.
func New() *Model { return NewWithOptions(Options{}) }

// NewWithOptions returns a fresh model with explicit tuning options.
func NewWithOptions(o Options) *Model {
	m := &Model{opts: o.withDefaults()}
	for i := range m.W {
		m.W[i] = 1.0 / NumScales
	}
	return m
}

// Options returns the effective options of the model.
func (m *Model) Options() Options { return m.opts }

// scores gathers the four SI values associated with a calendar hour, in
// scale order (day, week, month, year).
func (m *Model) scores(st simtime.Stamp) [NumScales]float64 {
	s := [NumScales]float64{m.SId[st.HourOfDay]}
	if row := m.SIw[st.DayOfWeek]; row != nil {
		s[ScaleWeek] = row[st.HourOfDay]
	}
	if t := m.SIm; t != nil {
		s[ScaleMonth] = t[st.DayOfMonth][st.HourOfDay]
	}
	if row := m.SIy[st.Month]; row != nil {
		s[ScaleYear] = row[st.DayOfMonth][st.HourOfDay]
	}
	return s
}

// IP computes the idleness probability wᵀ·SI ∈ [−1, 1] for the calendar
// hour described by st (eq. 1). Positive values predict idleness.
func (m *Model) IP(st simtime.Stamp) float64 {
	s := m.scores(st)
	return dot(m.W, s)
}

// IPProfileInto fills out[i] with IP(stamps[i]) for a whole matching
// horizon in one call — the shape consolidation rounds use, where each
// VM's IP is read for every hour of the next day. It leaves IPAt's
// memo alone: a round reads each hour of the horizon once. The weights
// and the SI_m pointer are read once, since a store to out could
// otherwise alias them; the week and year rows are read per stamp,
// since a 24-hour window crosses days and months. Each value is the
// expression IP computes, so it has IP's bits.
func (m *Model) IPProfileInto(stamps []simtime.Stamp, out []float64) {
	w, mt := m.W, m.SIm
	for i := range out {
		st := stamps[i]
		s := [NumScales]float64{m.SId[st.HourOfDay]}
		if row := m.SIw[st.DayOfWeek]; row != nil {
			s[ScaleWeek] = row[st.HourOfDay]
		}
		if mt != nil {
			s[ScaleMonth] = mt[st.DayOfMonth][st.HourOfDay]
		}
		if row := m.SIy[st.Month]; row != nil {
			s[ScaleYear] = row[st.DayOfMonth][st.HourOfDay]
		}
		out[i] = dot(w, s)
	}
}

// IPAt is IP at an absolute hour, served from a one-hour memo: a read
// at the memoized hour returns the stored IP, and a read at any other
// hour computes IP(Decompose(h)) and stores it. It is the one per-VM IP
// memo: the runtime's grace-time probabilities and the policies' VM,
// host and IP-range reads all arrive here, nearly all at the hour being
// played. Decoding clears the memo, and so does an observe that stores
// every cell it updates, so a served IP is bit-identical to
// IP(Decompose(h)). An observe that skips a cell leaves the memo
// holding the IP its stored cells would give at the observed hour,
// which IP(Decompose(h)) no longer returns there (see observe). The
// exported SI and weight fields bypass the memo, so code that writes
// them directly must do so before any read.
func (m *Model) IPAt(h simtime.Hour) float64 {
	if m.memoHour != h+1 {
		m.memoize(h)
	}
	return m.memoIP
}

// memoize fills IPAt's memo with the IP at hour h. It stays out of
// line so that IPAt's hit path inlines into its callers.
func (m *Model) memoize(h simtime.Hour) {
	m.memoIP = m.IP(simtime.Decompose(h))
	m.memoHour = h + 1
}

// Probability maps the IP onto [0, 1]: the form the paper quotes as a
// percentage ("its IP is higher than 50 %").
func (m *Model) Probability(st simtime.Stamp) float64 {
	return (m.IP(st) + 1) / 2
}

// PredictIdle reports whether the model predicts the VM idle for the
// given hour: normalized probability above 50 %, i.e. IP > 0.
func (m *Model) PredictIdle(st simtime.Stamp) bool { return m.IP(st) > 0 }

// MeanActiveLevel returns ā, the running average activity of past active
// hours, or 1 if the VM has never been active. A never-active VM has
// shown no evidence about its activity magnitude, so its idleness is
// credited at the maximum rate — consistent with eq. 2's intent that
// idleness observed against high activity is significant.
func (m *Model) MeanActiveLevel() float64 {
	if m.activeCount == 0 {
		return 1
	}
	return m.activeSum / float64(m.activeCount)
}

// HoursObserved returns the number of hourly observations applied.
func (m *Model) HoursObserved() int64 { return m.hoursObserved }

// IdleFractionObserved returns the observed fraction of idle hours.
func (m *Model) IdleFractionObserved() float64 {
	if m.hoursObserved == 0 {
		return 0
	}
	return float64(m.hoursIdle) / float64(m.hoursObserved)
}

// u is the update coefficient of eq. 4: close to 1 while |SI| is small
// (learn fast when undetermined) and decaying once |SI| passes Beta
// (avoid extreme values so the model can react to behaviour changes).
func u(absSI float64) float64 {
	return 1 / (1 + math.Exp(Alpha*(absSI-Beta)))
}

// Observe applies one hourly observation: the activity level of the VM
// during the hour described by st. It updates the SI scores (eqs. 2–5)
// and then corrects the weights by steepest descent (eqs. 6–8).
//
// activity must be in [0, 1]; levels below the noise floor count as an
// idle hour.
func (m *Model) Observe(st simtime.Stamp, activity float64) {
	m.observe(st, activity, nil, KeepAll)
}

// observe is Observe with an optional cross-model update memo, threaded
// in by ObserveColumn so replicated models in one column share their
// eq. 5 exponentials (see columnMemo in batch.go), and with the read
// horizon: the last hour any IP read of the model can reach. memo nil
// means the plain per-model path.
//
// A missing SI_w row, SI_m table or SI_y row is allocated only when
// the cell written at st.AbsHour can be read again by then, at its
// read-back gap. Otherwise the cell's update goes to a scratch that
// reads 0, the value a fresh row holds, and is dropped. The skip is
// exact for every read up to the horizon: a cell read at hour
// r ≤ horizon was last written at r − gap or earlier, and that write
// allocated its row. The one read that can reach a skipped cell is a
// read at st.AbsHour after this observe, so a skipping observe leaves
// IPAt's memo holding the IP a stored cell would give there,
// dot(W, siNew), instead of clearing it.
func (m *Model) observe(st simtime.Stamp, activity float64, memo *columnMemo, horizon simtime.Hour) {
	if activity < 0 || activity > 1 || math.IsNaN(activity) {
		panic(fmt.Sprintf("core: activity %v out of [0,1]", activity))
	}
	idle := activity < m.opts.NoiseFloor

	// eq. 2: the magnitude driving the update is the hour's own activity
	// when active, or the mean past active level when idle.
	a := activity
	if idle {
		a = m.MeanActiveLevel()
	}
	aStar := Sigma * a // eq. 3

	w0 := m.W
	// Resolve the four SI cells once; the gather and the write-back
	// share the index arithmetic. A row left unallocated has its cell
	// in skip.
	wk := m.SIw[st.DayOfWeek]
	if wk == nil && st.AbsHour <= horizon-weekGap {
		wk = new(SIDay)
		m.SIw[st.DayOfWeek] = wk
	}
	mt := m.SIm
	if mt == nil && st.AbsHour <= horizon-monthGap {
		mt = new(SIMonth)
		m.SIm = mt
	}
	row := m.SIy[st.Month]
	if row == nil && st.AbsHour <= horizon-yearGap {
		row = new(SIMonth)
		m.SIy[st.Month] = row
	}
	var skip [NumScales]float64
	cells := [NumScales]*float64{&m.SId[st.HourOfDay], &skip[ScaleWeek], &skip[ScaleMonth], &skip[ScaleYear]}
	if wk != nil {
		cells[ScaleWeek] = &wk[st.HourOfDay]
	}
	if mt != nil {
		cells[ScaleMonth] = &mt[st.DayOfMonth][st.HourOfDay]
	}
	if row != nil {
		cells[ScaleYear] = &row[st.DayOfMonth][st.HourOfDay]
	}
	siOld := [NumScales]float64{*cells[0], *cells[1], *cells[2], *cells[3]}

	siNew := siOld
	for k := range siNew {
		// The eq. 5 update, served through the column memo when a
		// replicated neighbour in the same column already computed this
		// triple.
		if memo != nil {
			siNew[k] = memo.update(k, siNew[k], aStar, idle)
		} else {
			siNew[k] = updateCell(siNew[k], aStar, idle)
		}
		*cells[k] = siNew[k]
	}

	m.learnWeights(w0, siOld, siNew)
	// The scores and weights changed. A skipped cell no longer holds
	// siNew, so the memo keeps the hour's IP; otherwise it is dropped.
	if wk == nil || mt == nil || row == nil {
		m.memoIP = dot(m.W, siNew)
		m.memoHour = st.AbsHour + 1
	} else {
		m.memoHour = 0
	}

	if !idle {
		m.activeSum += activity
		m.activeCount++
	}
	m.hoursObserved++
	if idle {
		m.hoursIdle++
	}
}

// learnWeights minimizes Q(w) = (w₀ᵀ·SI′ − wᵀ·SI)² by steepest descent
// (eq. 8), starting from the current weights, then projects the result
// back onto the probability simplex so the IP remains a convex
// combination of SI scores.
//
// The step is gradient-normalized (the NLMS form of steepest descent for
// a rank-one quadratic): w ← w + rate·err·SI/(SIᵀSI + ε). This makes the
// effective learning rate independent of the σ² scale of Q, which the
// paper leaves as an implementation precision knob ("its precision can
// be set to not incur any overhead"). Directionally it matches eq. 8
// exactly: weights of scales whose scores agree with the observed
// idleness grow, disagreeing scales shrink.
func (m *Model) learnWeights(w0, siOld, siNew [NumScales]float64) {
	target := dot(w0, siNew) // IP′ of eq. 7
	denom := dot(siOld, siOld) + 1e-9
	w := m.W
	for step := 0; step < m.opts.DescentSteps; step++ {
		err := target - dot(w, siOld)
		for k := range w {
			w[k] += m.opts.DescentRate * err * siOld[k] / denom
		}
	}
	m.W = projectSimplex(w)
}

// projectSimplex clamps negative components to zero and renormalizes the
// vector to sum to one. A zero vector resets to uniform weights.
func projectSimplex(w [NumScales]float64) [NumScales]float64 {
	sum := 0.0
	for k := range w {
		if w[k] < 0 || math.IsNaN(w[k]) {
			w[k] = 0
		}
		sum += w[k]
	}
	if sum <= 0 {
		for k := range w {
			w[k] = 1.0 / NumScales
		}
		return w
	}
	for k := range w {
		w[k] /= sum
	}
	return w
}

func dot(a, b [NumScales]float64) float64 {
	s := 0.0
	for k := range a {
		s += a[k] * b[k]
	}
	return s
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Clone returns a deep copy of the model: the week-scale day rows, the
// SI_m table and the year-scale month rows are copied, not shared.
func (m *Model) Clone() *Model {
	cp := *m
	for d, row := range m.SIw {
		if row != nil {
			r := *row
			cp.SIw[d] = &r
		}
	}
	if m.SIm != nil {
		t := *m.SIm
		cp.SIm = &t
	}
	for mo, row := range m.SIy {
		if row != nil {
			r := *row
			cp.SIy[mo] = &r
		}
	}
	return &cp
}

// String summarizes the model for experiment logs.
func (m *Model) String() string {
	return fmt.Sprintf("IM{w_d=%.3f w_w=%.3f w_m=%.3f w_y=%.3f observed=%dh idle=%.0f%%}",
		m.W[ScaleDay], m.W[ScaleWeek], m.W[ScaleMonth], m.W[ScaleYear],
		m.hoursObserved, 100*m.IdleFractionObserved())
}
