package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	// 6 TP, 2 FP, 1 FN, 1 TN.
	for i := 0; i < 6; i++ {
		c.Add(true, true)
	}
	c.Add(true, false)
	c.Add(true, false)
	c.Add(false, true)
	c.Add(false, false)
	if got := c.Recall(); math.Abs(got-6.0/7) > 1e-12 {
		t.Errorf("recall = %v, want 6/7", got)
	}
	if got := c.Precision(); math.Abs(got-6.0/8) > 1e-12 {
		t.Errorf("precision = %v, want 6/8", got)
	}
	if got := c.Specificity(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("specificity = %v, want 1/3", got)
	}
	r, p := 6.0/7, 6.0/8
	if got := c.FMeasure(); math.Abs(got-2*r*p/(r+p)) > 1e-12 {
		t.Errorf("f-measure = %v", got)
	}
	if c.Total() != 10 {
		t.Errorf("total = %d", c.Total())
	}
}

func TestConfusionVacuousCases(t *testing.T) {
	var c Confusion
	if c.Recall() != 1 || c.Precision() != 1 || c.Specificity() != 1 {
		t.Fatal("empty confusion should be vacuously perfect")
	}
	// Always-active VM, never predicted idle: only TN.
	var llmu Confusion
	for i := 0; i < 100; i++ {
		llmu.Add(false, false)
	}
	if llmu.Specificity() != 1 {
		t.Fatalf("LLMU specificity = %v, want 1", llmu.Specificity())
	}
	if llmu.Recall() != 1 || llmu.Precision() != 1 {
		t.Fatal("no-positive-case metrics should be vacuous 1")
	}
}

func TestConfusionFMeasureZero(t *testing.T) {
	var c Confusion
	c.Add(true, false) // FP
	c.Add(false, true) // FN
	if c.FMeasure() != 0 {
		t.Fatalf("f-measure = %v, want 0", c.FMeasure())
	}
}

func TestConfusionMerge(t *testing.T) {
	a := Confusion{TP: 1, FP: 2, TN: 3, FN: 4}
	b := Confusion{TP: 10, FP: 20, TN: 30, FN: 40}
	a.Merge(b)
	if a != (Confusion{TP: 11, FP: 22, TN: 33, FN: 44}) {
		t.Fatalf("merge wrong: %+v", a)
	}
}

func TestConfusionCountsProperty(t *testing.T) {
	f := func(preds, truths []bool) bool {
		n := len(preds)
		if len(truths) < n {
			n = len(truths)
		}
		var c Confusion
		for i := 0; i < n; i++ {
			c.Add(preds[i], truths[i])
		}
		return c.Total() == int64(n) &&
			c.TP >= 0 && c.FP >= 0 && c.TN >= 0 && c.FN >= 0 &&
			c.Recall() >= 0 && c.Recall() <= 1 &&
			c.Precision() >= 0 && c.Precision() <= 1 &&
			c.FMeasure() >= 0 && c.FMeasure() <= 1 &&
			c.Specificity() >= 0 && c.Specificity() <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowedEmitsPoints(t *testing.T) {
	w := NewWindowed(24)
	for h := int64(0); h < 24*7; h++ {
		w.Add(h, h%2 == 0, h%2 == 0)
	}
	if got := len(w.Points()); got != 7 {
		t.Fatalf("got %d points, want 7", got)
	}
	for _, p := range w.Points() {
		if p.FMeasure != 1 || p.Recall != 1 || p.Precision != 1 {
			t.Fatalf("perfect predictions should give perfect metrics: %+v", p)
		}
	}
	if w.Final().Total() != 24*7 {
		t.Fatalf("final total = %d", w.Final().Total())
	}
}

func TestWindowedPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindowed(0)
}

func TestEnergyMeter(t *testing.T) {
	var e EnergyMeter
	e.Accumulate(1000, 3600) // 1 kW for an hour
	if got := e.KWh(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("KWh = %v, want 1", got)
	}
	if got := e.Joules(); got != 3.6e6 {
		t.Fatalf("Joules = %v", got)
	}
	var e2 EnergyMeter
	e2.Accumulate(500, 7200)
	e.Merge(e2)
	if got := e.KWh(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("merged KWh = %v, want 2", got)
	}
}

func TestEnergyMeterRejectsNegative(t *testing.T) {
	for _, c := range [][2]float64{{-1, 1}, {1, -1}, {math.NaN(), 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Accumulate(%v, %v) should panic", c[0], c[1])
				}
			}()
			var e EnergyMeter
			e.Accumulate(c[0], c[1])
		}()
	}
}

func TestEnergyNonNegativeProperty(t *testing.T) {
	f := func(samples []uint16) bool {
		var e EnergyMeter
		for _, s := range samples {
			e.Accumulate(float64(s%500), float64(s%100))
		}
		return e.Joules() >= 0 && e.KWh() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestColocationMatrix(t *testing.T) {
	c := NewColocation(4)
	// VMs 0,1 together on host 0; VMs 2,3 on host 1, for 3 hours.
	for i := 0; i < 3; i++ {
		c.RecordHour([]int{0, 0, 1, 1})
	}
	// VM 1 migrates to host 1 for 1 hour.
	c.RecordHour([]int{0, 1, 1, 1})
	if got := c.Fraction(0, 1); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("fraction(0,1) = %v, want 0.75", got)
	}
	if got := c.Fraction(1, 2); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("fraction(1,2) = %v, want 0.25", got)
	}
	if c.Fraction(0, 0) != 1 {
		t.Fatal("diagonal must be 1")
	}
}

func TestColocationSymmetryProperty(t *testing.T) {
	f := func(assignments []uint8) bool {
		const n = 5
		c := NewColocation(n)
		for i := 0; i+n <= len(assignments); i += n {
			hosts := make([]int, n)
			for j := 0; j < n; j++ {
				hosts[j] = int(assignments[i+j] % 3)
			}
			c.RecordHour(hosts)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if c.Fraction(i, j) != c.Fraction(j, i) {
					return false
				}
				if c.Fraction(i, j) < 0 || c.Fraction(i, j) > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestColocationWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewColocation(3).RecordHour([]int{0})
}

func TestLatencyStats(t *testing.T) {
	l := NewLatencyStats(0.2)
	for i := 0; i < 99; i++ {
		l.Record(0.05)
	}
	l.Record(1.5) // one wake-triggered slow request
	if got := l.SLAFraction(); math.Abs(got-0.99) > 1e-12 {
		t.Fatalf("SLA fraction = %v, want 0.99", got)
	}
	if l.Max() != 1.5 {
		t.Fatalf("max = %v", l.Max())
	}
	if l.Count() != 100 {
		t.Fatalf("count = %d", l.Count())
	}
	if q := l.Quantile(0.5); q != 0.05 {
		t.Fatalf("median = %v", q)
	}
	if q := l.Quantile(1.0); q != 1.5 {
		t.Fatalf("p100 = %v", q)
	}
}

func TestLatencyStatsEmpty(t *testing.T) {
	l := NewLatencyStats(0.2)
	if l.SLAFraction() != 1 || l.Quantile(0.9) != 0 || l.Max() != 0 {
		t.Fatal("empty stats should be benign")
	}
}

func TestLatencyStatsRejectsInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLatencyStats(0.2).Record(-1)
}

// TestLatencyStatsMerge checks the shard-reduction contract: merging
// per-shard collectors in any order reports exactly what one collector
// fed the union of samples would.
func TestLatencyStatsMerge(t *testing.T) {
	samples := [][]float64{
		{0.05, 0.05, 1.5, 0.2},
		{0.05, 0.3},
		{}, // an idle shard contributes nothing
		{2.5, 0.05, 0.05, 0.05},
	}
	flat := NewLatencyStats(0.2)
	shards := make([]*LatencyStats, len(samples))
	for i, ss := range samples {
		shards[i] = NewLatencyStats(0.2)
		for _, s := range ss {
			flat.Record(s)
			shards[i].Record(s)
		}
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 1, 0, 2}} {
		merged := NewLatencyStats(0.2)
		for _, i := range order {
			merged.Merge(shards[i])
		}
		merged.Merge(nil) // nil shard is a no-op
		if merged.Count() != flat.Count() || merged.Max() != flat.Max() ||
			merged.SLAFraction() != flat.SLAFraction() {
			t.Fatalf("order %v: merged aggregates diverge from flat", order)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			if merged.Quantile(q) != flat.Quantile(q) {
				t.Fatalf("order %v: quantile %v = %v, flat %v",
					order, q, merged.Quantile(q), flat.Quantile(q))
			}
		}
	}
}

// TestLatencyStatsMergeRejectsMixedSLA: merging collectors with
// different SLA targets would corrupt withinSLA.
func TestLatencyStatsMergeRejectsMixedSLA(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLatencyStats(0.2).Merge(NewLatencyStats(0.5))
}

func TestConfusionString(t *testing.T) {
	c := Confusion{TP: 1, TN: 1}
	if c.String() == "" {
		t.Fatal("empty string")
	}
}

func TestWakeStatsMerge(t *testing.T) {
	a := WakeStats{Attempts: 10, Retries: 3, LostWakes: 1, RelayedWakes: 2,
		LostSLASeconds: 12.5, PathJoules: 100}
	b := WakeStats{Attempts: 4, Retries: 1, RelayedWakes: 1,
		LostSLASeconds: 2.5, PathJoules: 40}
	a.Merge(b)
	want := WakeStats{Attempts: 14, Retries: 4, LostWakes: 1, RelayedWakes: 3,
		LostSLASeconds: 15, PathJoules: 140}
	if a != want {
		t.Fatalf("merged = %+v, want %+v", a, want)
	}
	var zero WakeStats
	zero.Merge(WakeStats{})
	if zero != (WakeStats{}) {
		t.Fatalf("zero merge dirtied stats: %+v", zero)
	}
}
