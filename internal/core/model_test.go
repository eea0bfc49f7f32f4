package core

import (
	"math"
	"testing"
	"testing/quick"

	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

func TestNewModelIsUndetermined(t *testing.T) {
	m := New()
	st := simtime.Decompose(0)
	if ip := m.IP(st); ip != 0 {
		t.Fatalf("fresh model IP = %v, want 0", ip)
	}
	if m.PredictIdle(st) {
		t.Fatal("fresh model must not predict idle (undetermined)")
	}
	if p := m.Probability(st); p != 0.5 {
		t.Fatalf("fresh model probability = %v, want 0.5", p)
	}
	for k, w := range m.W {
		if w != 0.25 {
			t.Fatalf("weight %d = %v, want 0.25", k, w)
		}
	}
}

func TestObserveIdleRaisesIP(t *testing.T) {
	m := New()
	h := simtime.Hour(10)
	st := simtime.Decompose(h)
	for i := 0; i < 7; i++ {
		m.Observe(simtime.Decompose(h+simtime.Hour(24*i)), 0)
	}
	if ip := m.IP(st); ip <= 0 {
		t.Fatalf("after a week of idleness at the same hour, IP = %v, want > 0", ip)
	}
	if !m.PredictIdle(st) {
		t.Fatal("model should predict idle after consistent idleness")
	}
}

func TestObserveActivityLowersIP(t *testing.T) {
	m := New()
	h := simtime.Hour(10)
	for i := 0; i < 7; i++ {
		m.Observe(simtime.Decompose(h+simtime.Hour(24*i)), 0.8)
	}
	if ip := m.IPAt(h); ip >= 0 {
		t.Fatalf("after a week of activity at the same hour, IP = %v, want < 0", ip)
	}
}

func TestNoiseFloorFiltersQuanta(t *testing.T) {
	m := New()
	st := simtime.Decompose(3)
	m.Observe(st, 0.005) // below DefaultNoiseFloor: counts as idle
	if m.IP(st) <= 0 {
		t.Fatalf("sub-noise-floor activity should count as idle; IP = %v", m.IP(st))
	}
	if m.IdleFractionObserved() != 1 {
		t.Fatalf("idle fraction = %v, want 1", m.IdleFractionObserved())
	}
}

func TestMeanActiveLevelTracksActivity(t *testing.T) {
	m := New()
	if m.MeanActiveLevel() != 1 {
		t.Fatalf("never-active VM mean level = %v, want 1", m.MeanActiveLevel())
	}
	m.Observe(simtime.Decompose(0), 0.4)
	m.Observe(simtime.Decompose(1), 0.6)
	m.Observe(simtime.Decompose(2), 0) // idle: must not affect the mean
	if got := m.MeanActiveLevel(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("mean active level = %v, want 0.5", got)
	}
}

func TestIdleAfterHighActivityLearnsFast(t *testing.T) {
	// eq. 2: idleness observed after high activity must move SI faster
	// than idleness observed after low activity.
	high := New()
	low := New()
	for i := 0; i < 12; i++ { // train activity on morning hours only
		high.Observe(simtime.Decompose(simtime.Hour(i)), 1.0)
		low.Observe(simtime.Decompose(simtime.Hour(i)), 0.05)
	}
	st := simtime.Decompose(simtime.Hour(12)) // a fresh hour, observed idle
	high.Observe(st, 0)
	low.Observe(st, 0)
	if high.SId[12] <= low.SId[12] {
		t.Fatalf("SI_d after idle hour: high-activity VM %v <= low-activity VM %v",
			high.SId[12], low.SId[12])
	}
}

func TestUpdateCoefficientShape(t *testing.T) {
	// eq. 4: u decreases with |SI| and is 0.5 at the Beta threshold
	// scaled by Alpha's sigmoid.
	if u(0) <= u(0.5) || u(0.5) <= u(1.0) {
		t.Fatal("u must be strictly decreasing in |SI|")
	}
	// At |SI| = Beta the exponent is 0 so u = 0.5.
	if math.Abs(u(Beta)-0.5) > 1e-12 {
		t.Fatalf("u(Beta) = %v, want 0.5", u(Beta))
	}
}

func TestSIBoundsProperty(t *testing.T) {
	// Property: any observation sequence keeps every SI score in [-1, 1]
	// and the weights on the simplex.
	f := func(seed uint64, raw []byte) bool {
		m := New()
		h := simtime.Hour(int(seed % 1000))
		for i, b := range raw {
			act := float64(b) / 255
			m.Observe(simtime.Decompose(h+simtime.Hour(i)), act)
		}
		st := simtime.Decompose(h)
		for _, s := range m.scores(st) {
			if s < -1 || s > 1 || math.IsNaN(s) {
				return false
			}
		}
		sum := 0.0
		for _, w := range m.W {
			if w < 0 || math.IsNaN(w) {
				return false
			}
			sum += w
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIPBoundsProperty(t *testing.T) {
	m := New()
	for i := 0; i < 2000; i++ {
		act := 0.0
		if i%3 == 0 {
			act = 0.9
		}
		m.Observe(simtime.Decompose(simtime.Hour(i)), act)
	}
	f := func(raw uint32) bool {
		st := simtime.Decompose(simtime.Hour(raw % (10 * simtime.HoursPerYear)))
		ip := m.IP(st)
		p := m.Probability(st)
		return ip >= -1 && ip <= 1 && p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestObservePanicsOnBadActivity(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Observe(%v) should panic", bad)
				}
			}()
			New().Observe(simtime.Decompose(0), bad)
		}()
	}
}

func TestWeightLearningFavorsInformativeScale(t *testing.T) {
	// A comics-like workload (idle during July/August) must shift weight
	// away from scales that contradict the summer idleness. Train over
	// two years and check that the weekly scale — which predicts
	// activity on Monday mornings year-round — lost weight relative to
	// a scale that captures the holiday (month/year).
	g := trace.ComicStrips(0.5)
	m := New()
	for h := simtime.Hour(0); h < 2*simtime.HoursPerYear; h++ {
		m.Observe(simtime.Decompose(h), g.Activity(h))
	}
	if m.W[ScaleWeek] >= 0.25 {
		t.Fatalf("weekly weight %v did not shrink below uniform for a holiday workload (weights %v)", m.W[ScaleWeek], m.W)
	}
}

func TestTrainedModelPredictsDailyBackup(t *testing.T) {
	g := trace.DailyBackup(0.6)
	m := New()
	for h := simtime.Hour(0); h < 60*24; h++ { // two months
		m.Observe(simtime.Decompose(h), g.Activity(h))
	}
	// 02:00 must be predicted active (IP < 0), all other hours idle.
	day := simtime.Hour(61 * 24)
	for hod := 0; hod < 24; hod++ {
		st := simtime.Decompose(day + simtime.Hour(hod))
		if hod == 2 {
			if m.PredictIdle(st) {
				t.Fatalf("02:00 predicted idle (IP %v); backup hour must be active", m.IP(st))
			}
		} else if !m.PredictIdle(st) {
			t.Fatalf("%02d:00 predicted active (IP %v); want idle", hod, m.IP(st))
		}
	}
}

func TestLLMURecognizedQuickly(t *testing.T) {
	g := trace.LLMU(9)
	m := New()
	for h := simtime.Hour(0); h < 7*24; h++ {
		m.Observe(simtime.Decompose(h), g.Activity(h))
	}
	for hod := 0; hod < 24; hod++ {
		st := simtime.Decompose(simtime.Hour(8*24 + hod))
		if m.PredictIdle(st) {
			t.Fatalf("LLMU predicted idle at %02d:00 after one week", hod)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := New()
	m.Observe(simtime.Decompose(0), 0)
	c := m.Clone()
	c.Observe(simtime.Decompose(24), 0.9)
	if m.HoursObserved() != 1 || c.HoursObserved() != 2 {
		t.Fatal("clone shares state with original")
	}
}

func TestProjectSimplex(t *testing.T) {
	cases := []struct {
		in   [NumScales]float64
		want [NumScales]float64
	}{
		{[NumScales]float64{1, 1, 1, 1}, [NumScales]float64{0.25, 0.25, 0.25, 0.25}},
		{[NumScales]float64{-1, 0, 0, 2}, [NumScales]float64{0, 0, 0, 1}},
		{[NumScales]float64{0, 0, 0, 0}, [NumScales]float64{0.25, 0.25, 0.25, 0.25}},
		{[NumScales]float64{math.NaN(), 1, 0, 0}, [NumScales]float64{0, 1, 0, 0}},
	}
	for _, c := range cases {
		got := projectSimplex(c.in)
		for k := range got {
			if math.Abs(got[k]-c.want[k]) > 1e-12 {
				t.Errorf("projectSimplex(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestStringDoesNotCrash(t *testing.T) {
	m := New()
	m.Observe(simtime.Decompose(0), 0.5)
	if m.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestOptionsDefaults(t *testing.T) {
	m := New()
	o := m.Options()
	if o.NoiseFloor != DefaultNoiseFloor || o.DescentRate == 0 || o.DescentSteps == 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	m2 := NewWithOptions(Options{NoiseFloor: 0.05, DescentRate: 0.2, DescentSteps: 3})
	o2 := m2.Options()
	if o2.NoiseFloor != 0.05 || o2.DescentRate != 0.2 || o2.DescentSteps != 3 {
		t.Fatalf("explicit options not preserved: %+v", o2)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	m := New()
	g := trace.RealTrace(1)
	for h := simtime.Hour(0); h < 30*24; h++ {
		m.Observe(simtime.Decompose(h), g.Activity(h))
	}
	data := encode(t, m)
	var got Model
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for h := simtime.Hour(0); h < 48; h++ {
		st := simtime.Decompose(h)
		if got.IP(st) != m.IP(st) {
			t.Fatalf("IP mismatch after round trip at hour %d", h)
		}
	}
	if got.MeanActiveLevel() != m.MeanActiveLevel() ||
		got.HoursObserved() != m.HoursObserved() ||
		got.IdleFractionObserved() != m.IdleFractionObserved() {
		t.Fatal("counters lost in round trip")
	}
	if got.Options() != m.Options() {
		t.Fatal("options lost in round trip")
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	var m Model
	if err := m.UnmarshalBinary(nil); err == nil {
		t.Fatal("nil input should fail")
	}
	if err := m.UnmarshalBinary([]byte{1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("bad magic should fail")
	}
	good := encode(t, New())
	if err := m.UnmarshalBinary(good[:len(good)/2]); err == nil {
		t.Fatal("truncated input should fail")
	}
}

func BenchmarkObserve(b *testing.B) {
	m := New()
	g := trace.RealTrace(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := simtime.Hour(i % simtime.HoursPerYear)
		m.Observe(simtime.Decompose(h), g.Activity(h))
	}
}

// BenchmarkIPRead measures the IP reads a simulation makes, over
// 5,120 models trained on a month of a real trace: more models than the
// machine's caches hold, as in a fleet, so each read pays for the cache
// lines it touches. Each op is one call on the next model:
//
//   - first: an hour's first IPAt read, which misses the model's memo;
//   - repeat: a repeated IPAt read of one hour, which hits it;
//   - profile: one 24-hour IPProfileInto, a day further on each pass.
func BenchmarkIPRead(b *testing.B) {
	const n, days = 5120, 31
	proto := trainedModel(days * simtime.HoursPerDay)
	models := make([]*Model, n)
	for i := range models {
		models[i] = proto.Clone()
	}
	var sink float64
	// k continues across runs, so a run never rereads an hour the
	// previous run left in a memo.
	var k int
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += models[k%n].IPAt(simtime.Hour(k / n % (days * simtime.HoursPerDay)))
			k++
		}
	})
	b.Run("repeat", func(b *testing.B) {
		const h = 20*simtime.HoursPerDay + 9
		for _, m := range models {
			sink += m.IPAt(h)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += models[i%n].IPAt(h)
		}
	})
	b.Run("profile", func(b *testing.B) {
		var stamps [days][simtime.HoursPerDay]simtime.Stamp
		for d := range stamps {
			for hod := range stamps[d] {
				stamps[d][hod] = simtime.Decompose(simtime.Hour(d*simtime.HoursPerDay + hod))
			}
		}
		var out [simtime.HoursPerDay]float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			models[i%n].IPProfileInto(stamps[i/n%days][:], out[:])
			sink += out[0]
		}
	})
	if math.IsNaN(sink) {
		b.Fatal("NaN IP")
	}
}
