// Package trace generates the hourly VM activity traces that drive every
// Drowsy-DC experiment.
//
// An activity trace assigns to each simulated hour an activity level in
// [0, 1]: the fraction of CPU scheduler quanta the VM consumed during that
// hour (§III-C of the paper). The paper classifies VMs as short-lived
// mostly-used (SLMU), long-lived mostly-used (LLMU) and long-lived
// mostly-idle (LLMI), and evaluates the idleness model on the eight trace
// types of Table II: a daily backup, a comic-strip site with summer
// holidays, five production LLMI traces from Nutanix's private cloud, and
// an always-active LLMU VM.
//
// The production traces are not public, so this package substitutes
// synthetic generators with the same periodic structure — activity
// driven by hour-of-day, day-of-week, day-of-month and month-of-year
// rules plus deterministic noise. The substitution preserves exactly the
// properties the evaluation measures: periodicity at the four calendar
// scales the idleness model learns.
//
// Generators are pure, so consumers read them through memos (memo.go):
// Memo is one chunked memo of a pure function of the hour, used for
// activity levels and within-hour burst timelines alike, private to a
// VM or shared across concurrently running simulations; Source is a
// VM's activity, a memo of a base generator read through the member's
// phase shift and jitter overlay.
package trace

import (
	"fmt"
	"math"

	"drowsydc/internal/simtime"
	"drowsydc/internal/timeline"
)

// Func computes the activity level in [0, 1] of a VM for a calendar hour.
// Implementations must be pure: the same stamp always yields the same
// level, so a Func is usable both as a replayable workload and as an
// oracle for prediction-quality metrics.
type Func func(simtime.Stamp) float64

// Generator couples an activity function with a display name.
type Generator struct {
	Name string
	Fn   Func
}

// Activity evaluates the generator at the given absolute hour.
func (g Generator) Activity(h simtime.Hour) float64 {
	return clamp01(g.Fn(simtime.Decompose(h)))
}

// Trace is a materialized hourly activity series.
type Trace struct {
	Start  simtime.Hour
	Levels []float64
}

// Generate materializes n hours of a generator starting at hour start.
func Generate(g Generator, start simtime.Hour, n int) Trace {
	t := Trace{Start: start, Levels: make([]float64, n)}
	for i := range t.Levels {
		t.Levels[i] = g.Activity(start + simtime.Hour(i))
	}
	return t
}

// At returns the activity for absolute hour h, or 0 outside the trace.
func (t Trace) At(h simtime.Hour) float64 {
	i := int(h - t.Start)
	if i < 0 || i >= len(t.Levels) {
		return 0
	}
	return t.Levels[i]
}

// Len returns the number of hours in the trace.
func (t Trace) Len() int { return len(t.Levels) }

// MeanActivity returns the average level across the trace.
func (t Trace) MeanActivity() float64 {
	if len(t.Levels) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range t.Levels {
		sum += v
	}
	return sum / float64(len(t.Levels))
}

// IdleFraction returns the fraction of hours whose activity falls below
// the noise floor used by the idleness model.
func (t Trace) IdleFraction(noiseFloor float64) float64 {
	if len(t.Levels) == 0 {
		return 0
	}
	idle := 0
	for _, v := range t.Levels {
		if v < noiseFloor {
			idle++
		}
	}
	return float64(idle) / float64(len(t.Levels))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ---------------------------------------------------------------------------
// Deterministic noise
//
// Noise must be a pure function of (seed, hour) so that a Func stays
// replayable. timeline.SplitMix64 provides cheap, well-distributed
// hashing — one definition shared with the within-hour burst expansion,
// so the two layers' determinism contracts cannot drift apart.

// hashUnit maps (seed, hour) to a uniform float in [0, 1).
func hashUnit(seed uint64, h simtime.Hour) float64 {
	v := timeline.SplitMix64(seed ^ timeline.SplitMix64(uint64(h)))
	return float64(v>>11) / float64(1<<53)
}

// Jitter multiplies the inner generator's level by a factor in
// [1-amount, 1+amount], deterministically per hour. Levels of exactly
// zero stay zero: jitter must not turn an idle hour into an active one,
// otherwise prediction-quality ground truth would be noise-dependent.
func Jitter(seed uint64, amount float64, inner Func) Func {
	return func(st simtime.Stamp) float64 {
		v := inner(st)
		if v == 0 {
			return 0
		}
		f := 1 + amount*(2*hashUnit(seed, st.AbsHour)-1)
		return clamp01(v * f)
	}
}

// ---------------------------------------------------------------------------
// Pattern combinators

// Const returns a constant activity level.
func Const(level float64) Func {
	return func(simtime.Stamp) float64 { return clamp01(level) }
}

// HourWindow gates inner to hours of day in [from, to) (to may wrap past
// midnight when to < from).
func HourWindow(from, to int, inner Func) Func {
	return func(st simtime.Stamp) float64 {
		h := st.HourOfDay
		in := false
		if from <= to {
			in = h >= from && h < to
		} else {
			in = h >= from || h < to
		}
		if !in {
			return 0
		}
		return inner(st)
	}
}

// Weekdays gates inner to the listed days of the week (0 = Monday).
func Weekdays(days []int, inner Func) Func {
	var mask [simtime.DaysPerWeek]bool
	for _, d := range days {
		mask[d] = true
	}
	return func(st simtime.Stamp) float64 {
		if !mask[st.DayOfWeek] {
			return 0
		}
		return inner(st)
	}
}

// ExceptMonths zeroes inner during the listed months (0 = January).
func ExceptMonths(months []int, inner Func) Func {
	var mask [simtime.MonthsPerYear]bool
	for _, m := range months {
		mask[m] = true
	}
	return func(st simtime.Stamp) float64 {
		if mask[st.Month] {
			return 0
		}
		return inner(st)
	}
}

// OnlyMonths keeps inner only during the listed months.
func OnlyMonths(months []int, inner Func) Func {
	var mask [simtime.MonthsPerYear]bool
	for _, m := range months {
		mask[m] = true
	}
	return func(st simtime.Stamp) float64 {
		if !mask[st.Month] {
			return 0
		}
		return inner(st)
	}
}

// DaysOfMonth gates inner to the listed days of the month (0 = the 1st).
func DaysOfMonth(days []int, inner Func) Func {
	var mask [simtime.DaysPerMonth]bool
	for _, d := range days {
		mask[d] = true
	}
	return func(st simtime.Stamp) float64 {
		if !mask[st.DayOfMonth] {
			return 0
		}
		return inner(st)
	}
}

// Sum adds generators, clamping to [0, 1]. It models a VM hosting several
// independent periodic services.
func Sum(fns ...Func) Func {
	return func(st simtime.Stamp) float64 {
		v := 0.0
		for _, f := range fns {
			v += f(st)
		}
		return clamp01(v)
	}
}

// Bell shapes activity across a daily window as a raised cosine peaking
// at peakHour with the given half-width in hours. It produces the smooth
// business-day curves visible in the paper's Figure 1.
func Bell(peakHour int, halfWidth float64, level float64) Func {
	return func(st simtime.Stamp) float64 {
		d := float64(st.HourOfDay - peakHour)
		// Wrap around midnight so a 23:00 peak also covers 00:00-01:00.
		if d > 12 {
			d -= 24
		}
		if d < -12 {
			d += 24
		}
		if math.Abs(d) >= halfWidth {
			return 0
		}
		return clamp01(level * 0.5 * (1 + math.Cos(math.Pi*d/halfWidth)))
	}
}

// Shift displaces the inner pattern by the given number of hours
// (positive = the pattern happens later), modelling phase-shifted
// instances of one workload class (timezones, staggered batch windows).
func Shift(hours int, inner Func) Func {
	return func(st simtime.Stamp) float64 {
		shifted := int64(st.AbsHour) - int64(hours)
		if shifted < 0 {
			// Wrap within the week so early simulation hours stay
			// defined; weekly structure dominates the traces.
			shifted += (int64(hours)/(7*24) + 1) * 7 * 24
		}
		return inner(simtime.Decompose(simtime.Hour(shifted)))
	}
}

// VariantJitterAmount is the default jitter amplitude Variant applies
// to population members.
const VariantJitterAmount = 0.15

// Variant derives a population member from a base generator: an extra
// phase shift plus fresh jitter, so large simulated datacenters get
// diverse-but-structurally-identical workloads.
func Variant(g Generator, seed uint64, shiftHours int) Generator {
	return VariantJitter(g, seed, shiftHours, VariantJitterAmount)
}

// VariantJitter is Variant with an explicit jitter amplitude in [0, 1)
// — the knob parameter sweeps vary to measure how much workload
// irregularity the idleness model tolerates. amount 0 yields a pure
// phase shift.
func VariantJitter(g Generator, seed uint64, shiftHours int, amount float64) Generator {
	fn := g.Fn
	if shiftHours != 0 {
		fn = Shift(shiftHours, fn)
	}
	if amount > 0 {
		fn = Jitter(seed, amount, fn)
	}
	return Generator{
		Name: fmt.Sprintf("%s+%dh#%d", g.Name, shiftHours, seed),
		Fn:   fn,
	}
}

// ---------------------------------------------------------------------------
// Table II trace types (paper §VI-A-4, Figure 4)

// DailyBackup is Table II row (a): a backup service that runs each day at
// 02:00 for one hour at the given intensity.
func DailyBackup(level float64) Generator {
	return Generator{
		Name: "daily-backup",
		Fn:   HourWindow(2, 3, Const(level)),
	}
}

// ComicStrips is Table II row (b): an online comic-strip publication
// updated three times a week (Monday, Wednesday, Friday mornings), with
// no publication during July and August.
func ComicStrips(level float64) Generator {
	return Generator{
		Name: "comic-strips",
		Fn: ExceptMonths([]int{6, 7},
			Weekdays([]int{0, 2, 4},
				HourWindow(8, 11, Const(level)))),
	}
}

// RealTrace reproduces Table II rows (c)-(g): the five LLMI traces
// captured in Nutanix's production datacenter, with daily and weekly
// periodicity (see Figure 1 of the paper: activity bursts under ~25 %,
// business-hours shaped, weekends quiet for some VMs). Index i selects
// one of five structurally distinct variants; RealTrace(1) and
// RealTrace(2) are exercised as the "same workload" pair V3/V4 by the
// testbed experiment when given the same index.
func RealTrace(i int) Generator {
	if i < 1 || i > 5 {
		panic(fmt.Sprintf("trace: RealTrace index %d out of range 1..5", i))
	}
	seed := uint64(0x5eed0000 + i)
	var fn Func
	switch i {
	case 1:
		// Business-hours web service, Mon-Fri, morning and afternoon peaks.
		fn = Weekdays([]int{0, 1, 2, 3, 4},
			Sum(Bell(10, 3, 0.20), Bell(15, 3, 0.18)))
	case 2:
		// Evening and weekend service: complementary to the business-
		// hours traces (active when they sleep).
		fn = Sum(
			Bell(20, 3, 0.18),
			Weekdays([]int{5, 6}, Bell(14, 5, 0.15)))
	case 3:
		// Seven-day service with a nightly batch and light daytime load.
		fn = Sum(
			HourWindow(1, 3, Const(0.12)),
			Bell(13, 4, 0.08))
	case 4:
		// Weekly reporting: heavy Monday use, light rest of the week.
		fn = Sum(
			Weekdays([]int{0}, HourWindow(8, 18, Const(0.25))),
			Weekdays([]int{1, 2, 3, 4}, Bell(11, 2, 0.06)))
	case 5:
		// End-of-month accounting: last three days of each month, business
		// hours; otherwise a small daily ping.
		fn = Sum(
			DaysOfMonth([]int{27, 28, 29, 30}, HourWindow(9, 17, Const(0.22))),
			HourWindow(4, 5, Const(0.05)))
	}
	return Generator{
		Name: fmt.Sprintf("real-trace-%d", i),
		Fn:   Jitter(seed, 0.25, fn),
	}
}

// LLMU is Table II row (h): a long-lived mostly-used VM, active nearly
// every hour (e.g. a popular web service or a Google-trace-like job).
func LLMU(seed uint64) Generator {
	base := func(st simtime.Stamp) float64 {
		// Diurnal swing between 55 % and 95 % utilization; never idle.
		return 0.75 + 0.20*math.Sin(2*math.Pi*float64(st.HourOfDay-14)/24)
	}
	return Generator{
		Name: "llmu",
		Fn:   Jitter(seed, 0.05, base),
	}
}

// SLMU models a short-lived mostly-used VM (e.g. a MapReduce task): full
// activity for lifetimeHours starting at startHour, then gone.
func SLMU(start simtime.Hour, lifetimeHours int, level float64) Generator {
	return Generator{
		Name: "slmu",
		Fn: func(st simtime.Stamp) float64 {
			if st.AbsHour < start || st.AbsHour >= start+simtime.Hour(lifetimeHours) {
				return 0
			}
			return clamp01(level)
		},
	}
}

// SeasonalResults models the paper's motivating example (§III-A): a
// national diploma-results website mostly used at 14:00-16:00 on the 20th
// of July, every year, with a small trickle the following days.
func SeasonalResults() Generator {
	return Generator{
		Name: "seasonal-results",
		Fn: OnlyMonths([]int{6}, Sum(
			DaysOfMonth([]int{19}, HourWindow(14, 16, Const(0.9))),
			DaysOfMonth([]int{20, 21}, HourWindow(9, 18, Const(0.1))),
		)),
	}
}

// TableII returns the eight generators of Table II in the order of the
// paper's Figure 4 subfigures (a)-(h).
func TableII() []Generator {
	return []Generator{
		DailyBackup(0.6), // (a)
		ComicStrips(0.5), // (b)
		RealTrace(1),     // (c)
		RealTrace(2),     // (d)
		RealTrace(3),     // (e)
		RealTrace(4),     // (f)
		RealTrace(5),     // (g)
		LLMU(0xfeed),     // (h)
	}
}

// Figure1 returns the traces plotted in the paper's Figure 1: the shared
// V3/V4 workload and the distinct V6 workload, covering six days.
func Figure1() []Generator {
	v34 := RealTrace(1)
	v34.Name = "VM3,VM4"
	v6 := RealTrace(3)
	v6.Name = "VM6"
	return []Generator{v34, v6}
}
