package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"syscall"
	"testing"
	"time"

	"drowsydc/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite "+digestsPath+" from fresh seed-1 runs")

const specFile = "../BENCHMARK.json"

// TestSpec validates BENCHMARK.json and checks that it declares exactly
// this package's workloads, in order.
func TestSpec(t *testing.T) {
	spec, err := LoadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	ws := Workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the package has %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the package %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
}

// TestSpecLimits checks that Validate rejects files outside the limits.
func TestSpecLimits(t *testing.T) {
	base, err := LoadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	bound := func(v float64) *float64 { return &v }
	cases := map[string]func(s *Spec){
		"bad workload name": func(s *Spec) { s.Workloads[0].Name = "fleet hourly" },
		"one workload":      func(s *Spec) { s.Workloads = s.Workloads[:1] },
		"nine workloads": func(s *Spec) {
			for i := len(s.Workloads); i < 9; i++ {
				s.Workloads = append(s.Workloads, SpecWorkload{Name: "w" + string(rune('0'+i)), Why: "x"})
			}
		},
		"duplicate metric":    func(s *Spec) { s.PerLayer = append(s.PerLayer, s.EndToEnd[1]) },
		"metric name symbols": func(s *Spec) { s.PerLayer[0].Name = "dcsim/pre" },
		"seventeen e2e": func(s *Spec) {
			for len(s.EndToEnd) < 17 {
				m := s.EndToEnd[1]
				m.Name += string(rune('a' + len(s.EndToEnd)))
				s.EndToEnd = append(s.EndToEnd, m)
			}
		},
		"129 per-layer": func(s *Spec) {
			for i := len(s.PerLayer); i < 129; i++ {
				s.PerLayer = append(s.PerLayer, SpecMetric{Name: "x" + string(rune('0'+i%10)) + string(rune('a'+i/10)), Unit: "count", Better: "lower"})
			}
		},
		"bound too wide":      func(s *Spec) { s.EndToEnd[1].Bound = bound(0.3) },
		"per-layer bound":     func(s *Spec) { s.PerLayer[0].Bound = bound(0.1) },
		"no setup_s":          func(s *Spec) { s.EndToEnd = s.EndToEnd[1:] },
		"bad unit":            func(s *Spec) { s.EndToEnd[1].Unit = "requests per second" },
		"bad direction":       func(s *Spec) { s.EndToEnd[1].Better = "more" },
		"absolute path":       func(s *Spec) { s.Paths = []string{"/bench"} },
		"run_seconds 61":      func(s *Spec) { s.RunSeconds = 61 },
		"two-line why":        func(s *Spec) { s.Workloads[0].Why = "a\nb" },
		"command leaves repo": func(s *Spec) { s.Command = []string{"bash", "../run.sh"} },
	}
	for name, mutate := range cases {
		data, _ := json.Marshal(base)
		var s Spec
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
	}
}

// TestSmoke runs every workload at smoke scale in both passes and
// checks that each emits every metric BENCHMARK.json declares for the
// pass, with its unit and a finite value, and that nothing failed.
func TestSmoke(t *testing.T) {
	spec, err := LoadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads() {
		for _, traced := range []bool{false, true} {
			res, err := Run(Config{Workload: w.Name, Seed: 7, Traced: traced, Smoke: true})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed: %v",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			for _, m := range spec.Metrics(traced) {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is %v", w.Name, m.Name, got.Value)
				}
			}
			if traced && len(res.Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.Name)
			}
		}
	}
}

// TestDigests pins the seed-1 reports. Round (1, 0) of every simulator
// workload must be byte-identical to the scenario library's own serial
// run of the same family, traced or not, and equal to its pinned
// digest. With -update it rewrites the pinned digests instead.
func TestDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale runs")
	}
	if *update {
		writeDigests(t)
		return
	}
	for _, name := range []string{"fleet-hourly", "hetero-year", "event-lossy"} {
		s := simWorkloads[name]
		in := s.input(false)
		ref := referenceReport(t, in)
		sc, err := s.build(1, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			op, err := runOp(sc, runOptions(), nil, 0, traced)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(op.report, ref) {
				t.Errorf("%s (traced %v): round (1, 0) differs from the direct serial run", name, traced)
			}
		}
		if pins := pinnedDigests()[name]; len(pins) == 0 || pins[0] != digest(ref) {
			t.Errorf("%s: round (1, 0) digest %.12s is not the pinned one", name, digest(ref))
		}
	}
}

// referenceReport runs the family behind a round input on the scenario
// library's serial path: RunFamily, or Run when the workload overrides
// the family's columns.
func referenceReport(t *testing.T, in simInput) []byte {
	t.Helper()
	p := in.params
	p.ShardWorkers = 0
	opt := scenario.Options{Workers: 1}
	var rep *scenario.Report
	var err error
	if in.policies == nil {
		rep, err = scenario.RunFamily(in.family, p, opt)
	} else {
		var sc scenario.Scenario
		if sc, err = scenario.BuildFamily(in.family, p); err == nil {
			sc.Policies = in.policies
			rep, err = scenario.Run(sc, opt)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeDigests recomputes the first pinnedRounds seed-1 rounds of every
// workload and rewrites the digests file.
func writeDigests(t *testing.T) {
	out := map[string][]string{}
	for _, w := range Workloads() {
		for k := 0; k < pinnedRounds[w.Name]; k++ {
			var d string
			if s, ok := simWorkloads[w.Name]; ok {
				sc, err := s.build(1, k, false)
				if err != nil {
					t.Fatal(err)
				}
				op, err := runOp(sc, runOptions(), nil, 0, false)
				if err != nil {
					t.Fatalf("%s round %d: %v", w.Name, k, err)
				}
				d = digest(op.report)
			} else {
				_, seq, err := mixCatalog(fullMix, 1, k)
				if err != nil {
					t.Fatal(err)
				}
				mr, err := runMix(seq, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				r := &recorder{metrics: map[string]Metric{}}
				_, d, _ = checkMix(r, seq, mr)
				if r.failed != 0 || len(r.errors) != 0 {
					t.Fatalf("%s round %d: %v", w.Name, k, r.errors)
				}
			}
			out[w.Name] = append(out[w.Name], d)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestsPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTraceOverhead splits the traced pass's overhead on round
// (1, 0) of each simulator workload into its two sources inside the
// program: "probe" attaches the flight-recorder probe without phase
// timings (the per-hour sample walk over every host), "timed" adds the
// phase timers, as the traced pass runs. -count interleaves the modes.
// Besides wall time it reports process CPU time (cpu-ns/op), which
// neighbours on a shared host disturb less:
//
//	go test -run '^$' -bench TraceOverhead -count 12
func BenchmarkTraceOverhead(b *testing.B) {
	for _, name := range []string{"fleet-hourly", "hetero-year", "event-lossy"} {
		sc, err := simWorkloads[name].build(1, 0, false)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []string{"off", "probe", "timed"} {
			b.Run(name+"/"+mode, func(b *testing.B) {
				settle()
				c0 := cpuTime()
				defer func() { b.ReportMetric(float64(cpuTime()-c0)/float64(b.N), "cpu-ns/op") }()
				for i := 0; i < b.N; i++ {
					opt := runOptions()
					if mode != "off" {
						var ps probeSet
						ps.attach(&opt)
						opt.ProbeTimings = mode == "timed"
					}
					if _, err := scenario.Run(sc, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestCompare checks the verdicts on synthetic runs.
func TestCompare(t *testing.T) {
	spec, err := LoadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	runs := func(traced bool, failed int, vals map[string][]float64) []Result {
		var rs []Result
		for i := 0; i < 5; i++ {
			r := Result{Workload: "w", Traced: traced, Attempted: 10, Failed: failed, Metrics: map[string]Metric{}}
			for name, v := range vals {
				r.Metrics[name] = Metric{Value: v[i], Unit: "x"}
			}
			rs = append(rs, r)
		}
		return rs
	}
	steady := []float64{100, 101, 99, 100, 100}
	a := runs(false, 0, map[string][]float64{"op_p50_ms": steady, "ops_per_s": steady, "sim_p50_ms": steady})
	b := runs(false, 0, map[string][]float64{
		"op_p50_ms":  {140, 141, 139, 140, 140}, // 40% slower: regressed
		"ops_per_s":  {140, 141, 139, 140, 140}, // 40% more throughput: improved
		"sim_p50_ms": {100, 140, 70, 100, 130}}) // wide spread: unresolved
	la := runs(true, 0, map[string][]float64{"oasis.pair_evals": {5, 5, 5, 5, 5}, "dcsim.pre_s": steady})
	lb := runs(true, 0, map[string][]float64{"oasis.pair_evals": {5, 5, 6, 5, 5}, "dcsim.pre_s": steady})
	want := map[string]string{
		"fail_frac": Unchanged, "op_p50_ms": Regressed, "ops_per_s": Improved,
		"sim_p50_ms": Unresolved, "oasis.pair_evals": Changed, "dcsim.pre_s": "",
	}
	rows := Compare(spec, append(a, la...), append(b, lb...))
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for _, r := range rows {
		if r.Verdict != want[r.Metric] {
			t.Errorf("%s: verdict %q, want %q", r.Metric, r.Verdict, want[r.Metric])
		}
	}
	if !Failing(rows) {
		t.Error("a regressed metric must fail the comparison")
	}
	same := Compare(spec, a, a)
	if Failing(same) {
		t.Errorf("a side compared with itself fails: %+v", same)
	}
	worse := Compare(spec, a, runs(false, 1, map[string][]float64{"op_p50_ms": steady}))
	if !Failing(worse) {
		t.Error("a higher fail_frac must fail the comparison")
	}

	// On a simulator workload one slowdown moves a metric and its
	// aliases; only the metric itself gets a verdict.
	slow := []float64{140, 141, 139, 140, 140}
	sa := runs(false, 0, map[string][]float64{"op_p50_ms": steady, "sim_p50_ms": steady, "sim_p90_ms": steady})
	sb := runs(false, 0, map[string][]float64{"op_p50_ms": slow, "sim_p50_ms": slow, "sim_p90_ms": slow})
	for i := range sa {
		sa[i].Workload, sb[i].Workload = "fleet-hourly", "fleet-hourly"
	}
	want = map[string]string{"fail_frac": Unchanged, "op_p50_ms": Regressed,
		"sim_p50_ms": AliasOf + "op_p50_ms", "sim_p90_ms": Regressed}
	for _, r := range Compare(spec, sa, sb) {
		if r.Verdict != want[r.Metric] {
			t.Errorf("fleet-hourly %s: verdict %q, want %q", r.Metric, r.Verdict, want[r.Metric])
		}
	}
}
