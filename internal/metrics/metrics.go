// Package metrics implements the measurement apparatus of the paper's
// evaluation: the prediction-accuracy metrics of Table III (recall,
// precision, F-measure, specificity), energy accounting, the colocation
// matrix of Figure 2, and request-latency/SLA statistics.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// ---------------------------------------------------------------------------
// Prediction accuracy (Table III)

// Confusion is a binary confusion matrix. The positive class is "idle"
// (a case is positive when the VM is idle or predicted idle, §VI-A-4).
type Confusion struct {
	TP, FP, TN, FN int64
}

// Add records one prediction against ground truth.
func (c *Confusion) Add(predictedIdle, actuallyIdle bool) {
	switch {
	case predictedIdle && actuallyIdle:
		c.TP++
	case predictedIdle && !actuallyIdle:
		c.FP++
	case !predictedIdle && actuallyIdle:
		c.FN++
	default:
		c.TN++
	}
}

// Merge accumulates another confusion matrix into c.
func (c *Confusion) Merge(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.TN += o.TN
	c.FN += o.FN
}

// Total returns the number of recorded cases.
func (c Confusion) Total() int64 { return c.TP + c.FP + c.TN + c.FN }

// ratio returns num/den, or 1 when den is zero: with no cases of the
// relevant kind the metric is vacuously perfect (e.g. specificity of a
// VM that is never predicted idle, or recall of an always-active VM).
func ratio(num, den int64) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

// Recall = TP/(TP+FN): sensitivity to false negatives — cases where the
// model predicted activity but the VM was actually idle.
func (c Confusion) Recall() float64 { return ratio(c.TP, c.TP+c.FN) }

// Precision = TP/(TP+FP): sensitivity to false positives — cases where
// the VM was predicted idle but was actually active. The paper stresses
// this metric: a false positive can pin an active VM among idle ones and
// forfeit a suspension opportunity.
func (c Confusion) Precision() float64 { return ratio(c.TP, c.TP+c.FP) }

// FMeasure is the harmonic mean of recall and precision, the paper's
// main evaluation score.
func (c Confusion) FMeasure() float64 {
	r, p := c.Recall(), c.Precision()
	if r+p == 0 {
		return 0
	}
	return 2 * r * p / (r + p)
}

// Specificity = TN/(TN+FP): the capacity to predict active periods,
// important for LLMU VMs (Figure 4h).
func (c Confusion) Specificity() float64 { return ratio(c.TN, c.TN+c.FP) }

// String renders all four metrics.
func (c Confusion) String() string {
	return fmt.Sprintf("recall=%.3f precision=%.3f f=%.3f specificity=%.3f (n=%d)",
		c.Recall(), c.Precision(), c.FMeasure(), c.Specificity(), c.Total())
}

// Point is one windowed sample of the four metrics, as plotted by the
// paper's Figure 4 over three years.
type Point struct {
	EndHour   int64 // absolute hour at the end of the window
	Recall    float64
	Precision float64
	FMeasure  float64
	Spec      float64
}

// Windowed accumulates predictions and emits one cumulative metric point
// per window (the paper's Figure 4 plots cumulative-to-date quality
// sampled along three years; a short-window variant would be too noisy
// for yearly-scale patterns that recur once per window).
type Windowed struct {
	WindowHours int64
	cum         Confusion
	seen        int64
	points      []Point
}

// NewWindowed creates a windowed accumulator; windowHours must be > 0.
func NewWindowed(windowHours int64) *Windowed {
	if windowHours <= 0 {
		panic("metrics: window must be positive")
	}
	return &Windowed{WindowHours: windowHours}
}

// Add records one hourly prediction; when a window boundary is crossed a
// cumulative metric point is appended.
func (w *Windowed) Add(absHour int64, predictedIdle, actuallyIdle bool) {
	w.cum.Add(predictedIdle, actuallyIdle)
	w.seen++
	if w.seen%w.WindowHours == 0 {
		w.points = append(w.points, Point{
			EndHour:   absHour,
			Recall:    w.cum.Recall(),
			Precision: w.cum.Precision(),
			FMeasure:  w.cum.FMeasure(),
			Spec:      w.cum.Specificity(),
		})
	}
}

// Points returns the accumulated metric series.
func (w *Windowed) Points() []Point { return w.points }

// Final returns the cumulative confusion matrix.
func (w *Windowed) Final() Confusion { return w.cum }

// ---------------------------------------------------------------------------
// Energy accounting

// JoulesPerKWh converts integrated joules to kilowatt-hours.
const JoulesPerKWh = 3.6e6

// EnergyMeter integrates power over time.
type EnergyMeter struct {
	joules float64
}

// Accumulate adds watts × seconds to the meter. Negative power or
// duration panics: energy only flows one way.
func (e *EnergyMeter) Accumulate(watts, seconds float64) {
	if watts < 0 || seconds < 0 || math.IsNaN(watts) || math.IsNaN(seconds) {
		panic(fmt.Sprintf("metrics: invalid energy sample %vW x %vs", watts, seconds))
	}
	e.joules += watts * seconds
}

// Merge adds another meter's total into e.
func (e *EnergyMeter) Merge(o EnergyMeter) { e.joules += o.joules }

// Joules returns the accumulated energy.
func (e EnergyMeter) Joules() float64 { return e.joules }

// KWh returns the accumulated energy in kilowatt-hours.
func (e EnergyMeter) KWh() float64 { return e.joules / JoulesPerKWh }

// ---------------------------------------------------------------------------
// Wake-path accounting (lossy WoL delivery)

// WakeStats aggregates the outcomes of Wake-on-LAN transactions under
// the lossy delivery model: transmissions, retransmissions, wakes lost
// to the broadcast fabric, wakes carried by subnet relays, the SLA
// seconds burned waiting on retries and recoveries, and the wake-path
// energy (retransmissions, out-of-band recoveries, relay legs, relay
// standing draw).
type WakeStats struct {
	// Attempts counts every magic-packet transmission, first tries
	// included.
	Attempts uint64
	// Retries counts retransmissions only (attempts beyond each
	// transaction's first).
	Retries uint64
	// LostWakes counts transactions whose every attempt was dropped;
	// the manager recovered those hosts out of band.
	LostWakes uint64
	// RelayedWakes counts transactions carried as reliable unicast by a
	// subnet relay.
	RelayedWakes uint64
	// LostSLASeconds integrates the extra silence requests endured
	// because a wake needed retries or out-of-band recovery.
	LostSLASeconds float64
	// PathJoules integrates the wake path's energy: retransmissions,
	// recoveries, relay legs and relay standing draw, plus the
	// suspension credit clawed back while hosts overslept through
	// dropped wakes (so losing packets can never look cheaper than
	// delivering them).
	PathJoules float64
}

// Merge folds another shard's wake accounting into w.
func (w *WakeStats) Merge(o WakeStats) {
	w.Attempts += o.Attempts
	w.Retries += o.Retries
	w.LostWakes += o.LostWakes
	w.RelayedWakes += o.RelayedWakes
	w.LostSLASeconds += o.LostSLASeconds
	w.PathJoules += o.PathJoules
}

// ---------------------------------------------------------------------------
// Colocation matrix (Figure 2)

// Colocation tracks, hour by hour, which VMs share a host, producing the
// colocation-percentage matrix of Figure 2 plus per-VM migration counts.
type Colocation struct {
	n          int
	hours      int64
	together   [][]int64
	migrations []int
	last       []int // last host of each VM, -1 before first placement
}

// NewColocation creates a tracker for n VMs.
func NewColocation(n int) *Colocation {
	c := &Colocation{n: n, together: make([][]int64, n), migrations: make([]int, n), last: make([]int, n)}
	for i := range c.together {
		c.together[i] = make([]int64, n)
	}
	for i := range c.last {
		c.last[i] = -1
	}
	return c
}

// RecordHour records the host assignment of every VM for one hour.
// hosts[i] is the host index of VM i, or a negative value for a VM that
// is unplaced or not yet created — such VMs are colocated with nobody
// (not even each other) and accrue no migrations. A change of host from
// the previous recorded hour counts as one migration (the first
// placement does not).
func (c *Colocation) RecordHour(hosts []int) {
	if len(hosts) != c.n {
		panic(fmt.Sprintf("metrics: got %d host assignments, want %d", len(hosts), c.n))
	}
	for i := 0; i < c.n; i++ {
		hi := hosts[i]
		if hi < 0 {
			continue
		}
		if c.last[i] >= 0 && hi != c.last[i] {
			c.migrations[i]++
		}
		c.last[i] = hi
		row := c.together[i]
		for j := 0; j < c.n; j++ {
			if hi == hosts[j] {
				row[j]++
			}
		}
	}
	c.hours++
}

// Fraction returns the fraction of recorded hours VMs i and j shared a
// host (1.0 on the diagonal).
func (c *Colocation) Fraction(i, j int) float64 {
	if c.hours == 0 {
		return 0
	}
	return float64(c.together[i][j]) / float64(c.hours)
}

// Migrations returns the number of migrations VM i experienced.
func (c *Colocation) Migrations(i int) int { return c.migrations[i] }

// Hours returns the number of recorded hours.
func (c *Colocation) Hours() int64 { return c.hours }

// N returns the number of tracked VMs.
func (c *Colocation) N() int { return c.n }

// ---------------------------------------------------------------------------
// Request latency / SLA (§VI-A-3)

// LatencyStats aggregates request response times against an SLA target.
//
// The simulated request population is highly degenerate: every request
// of an hour shares the base service time except the wake-delayed first
// one, so the stats store the multiset run-length encoded — a slice of
// (distinct value, occurrence count) runs sorted by value — instead of
// keeping a per-request slice. Count, SLAFraction, Max and Quantile are
// exact — identical to what a flat sample slice would report — while
// memory stays proportional to the handful of distinct latencies rather
// than to request volume.
type LatencyStats struct {
	slaSeconds float64
	runs       []LatencySample
	total      int64
	withinSLA  int64
	max        float64
}

// NewLatencyStats creates a collector with the given SLA target in
// seconds (the paper's CloudSuite web-search SLA is 200 ms).
func NewLatencyStats(slaSeconds float64) *LatencyStats {
	return &LatencyStats{slaSeconds: slaSeconds}
}

// Record adds one request's response time in seconds.
func (l *LatencyStats) Record(seconds float64) { l.RecordN(seconds, 1) }

// RecordN adds n requests with the same response time — the common
// shape of an active hour, where every request after the wake-delayed
// first one costs the base service time. Identical to n Record calls
// (all aggregates are order-independent).
func (l *LatencyStats) RecordN(seconds float64, n int) {
	if n <= 0 {
		return
	}
	if seconds < 0 || math.IsNaN(seconds) {
		panic(fmt.Sprintf("metrics: invalid latency %v", seconds))
	}
	l.add(seconds, int64(n))
	l.total += int64(n)
	if seconds <= l.slaSeconds {
		l.withinSLA += int64(n)
	}
	if seconds > l.max {
		l.max = seconds
	}
}

// add counts n occurrences of v into its run, inserting the run in
// value order when v is new.
func (l *LatencyStats) add(v float64, n int64) {
	i, found := slices.BinarySearchFunc(l.runs, v, func(r LatencySample, v float64) int {
		return cmp.Compare(r.Seconds, v)
	})
	if found {
		l.runs[i].Count += n
		return
	}
	l.runs = slices.Insert(l.runs, i, LatencySample{Seconds: v, Count: n})
}

// Merge accumulates another collector's samples into l — the shard
// reduction of the parallel simulation runtime. Every aggregate is
// order-independent (run-length-encoded multiset, sums, max), so
// merging per-shard collectors in any fixed order reports exactly what
// a single collector fed the union of samples would. The SLA targets
// must match: a mixed-target merge would make withinSLA meaningless.
func (l *LatencyStats) Merge(o *LatencyStats) {
	if o == nil {
		return
	}
	if o.slaSeconds != l.slaSeconds {
		panic(fmt.Sprintf("metrics: merging latency stats with SLA %v into %v",
			o.slaSeconds, l.slaSeconds))
	}
	for _, r := range o.runs {
		l.add(r.Seconds, r.Count)
	}
	l.total += o.total
	l.withinSLA += o.withinSLA
	if o.max > l.max {
		l.max = o.max
	}
}

// Count returns the number of recorded requests.
func (l *LatencyStats) Count() int64 { return l.total }

// WithinSLA returns how many recorded samples met the SLA target.
func (l *LatencyStats) WithinSLA() int64 { return l.withinSLA }

// SLAFraction returns the fraction of requests meeting the SLA target.
func (l *LatencyStats) SLAFraction() float64 {
	if l.total == 0 {
		return 1
	}
	return float64(l.withinSLA) / float64(l.total)
}

// Max returns the worst response time seen.
func (l *LatencyStats) Max() float64 { return l.max }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of recorded latencies,
// or 0 with no samples: the value at rank ⌊q·(n−1)⌋ of the sorted
// multiset, exactly as if every request were an element of a sorted
// slice.
func (l *LatencyStats) Quantile(q float64) float64 {
	if l.total == 0 {
		return 0
	}
	rank := int64(q * float64(l.total-1))
	var cum int64
	for _, r := range l.runs {
		cum += r.Count
		if rank < cum {
			return r.Seconds
		}
	}
	return l.runs[len(l.runs)-1].Seconds
}

// LatencySample is one run-length-encoded latency value, for checkpoint
// serialization of a collector's multiset.
type LatencySample struct {
	Seconds float64
	Count   int64
}

// Export returns a copy of the collector's multiset as run-length-
// encoded samples sorted by latency value, for run checkpoints.
// Replaying the samples through RecordN on a fresh collector with the
// same SLA target reconstructs every aggregate (total, withinSLA, max)
// exactly, because all of them are order-independent functions of the
// multiset.
func (l *LatencyStats) Export() []LatencySample {
	return append(make([]LatencySample, 0, len(l.runs)), l.runs...)
}

// SLASeconds returns the collector's SLA target.
func (l *LatencyStats) SLASeconds() float64 { return l.slaSeconds }
