package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// exactMetrics are the deterministic counts: for one seed they repeat
// exactly, so compare checks them for equality instead of by a bound.
var exactMetrics = map[string]bool{
	"dcsim.vm_hours": true, "dcsim.event_hours": true, "dcsim.requests": true,
	"dcsim.sla_violations": true, "suspend.suspends": true, "waking.scheduled_wakes": true,
	"waking.packet_wakes": true, "netsim.wake_attempts": true, "netsim.wake_retries": true,
	"oasis.pair_evals": true, "policy.migrations": true, "checkpoint.bytes_per_vm": true,
	"server.hit_n": true, "server.miss_n": true, "server.runs": true, "server.store_promotions": true,
}

// simAliases are the end-to-end metrics that, on a simulator workload,
// repeat another metric's measurement: vmh_per_s is ops_per_s times the
// round's fixed VM-hours, and sim_p50_ms is op_p50_ms, since every
// operation runs a simulation. Compare gives them no verdict of their
// own, so one slowdown yields one verdict.
var simAliases = map[string]string{"vmh_per_s": "ops_per_s", "sim_p50_ms": "op_p50_ms"}

// Verdicts of a comparison. An aliased metric's verdict is AliasOf
// followed by the metric it repeats.
const (
	Improved   = "improved"
	Regressed  = "regressed"
	Unchanged  = "unchanged"
	Unresolved = "unresolved"
	Equal      = "equal"
	Changed    = "changed"
	AliasOf    = "alias of "
)

// Env describes the host a ledger was measured on.
type Env struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
	OS    string `json:"os"`
}

// HostEnv describes this host.
func HostEnv() Env {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return Env{NProc: runtime.NumCPU(), CPU: cpu, Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
}

// Summary is one (workload, metric) row of a ledger.
type Summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Ledger is a committed set of runs (results/BENCH_*.json): the host,
// per-metric medians and quartiles, and the raw runs without spans.
type Ledger struct {
	Env     Env                           `json:"env"`
	Summary map[string]map[string]Summary `json:"summary"`
	Runs    []Result                      `json:"runs"`
}

// NewLedger summarizes runs.
func NewLedger(spec *Spec, runs []Result) *Ledger {
	l := &Ledger{Env: HostEnv(), Summary: map[string]map[string]Summary{}}
	for _, r := range runs {
		r.Spans = nil
		l.Runs = append(l.Runs, r)
	}
	for key, vals := range collect(spec, runs) {
		q1, med, q3 := quartiles(vals.values)
		if l.Summary[key.workload] == nil {
			l.Summary[key.workload] = map[string]Summary{}
		}
		l.Summary[key.workload][key.metric] = Summary{Unit: vals.unit, N: len(vals.values), Median: med, Q1: q1, Q3: q3}
	}
	return l
}

// LoadRuns reads the runs at path: a ledger file, a single result file,
// or a directory holding result files at any depth.
func LoadRuns(path string) ([]Result, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return loadRunFile(path)
	}
	var runs []Result
	err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(p) != ".json" {
			return err
		}
		rs, err := loadRunFile(p)
		runs = append(runs, rs...)
		return err
	})
	if err == nil && len(runs) == 0 {
		err = fmt.Errorf("%s: no result files", path)
	}
	return runs, err
}

func loadRunFile(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Runs     json.RawMessage `json:"runs"`
		Workload string          `json:"workload"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if probe.Runs != nil {
		var l Ledger
		if err := json.Unmarshal(data, &l); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		return l.Runs, nil
	}
	if probe.Workload == "" {
		return nil, fmt.Errorf("%s: neither a ledger nor a drowsybench result", path)
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return []Result{r}, nil
}

type seriesKey struct{ workload, metric string }

type series struct {
	unit   string
	values []float64
}

// collect gathers every metric value by (workload, metric), plus the
// per-run failure fraction of untraced runs. Per-layer metrics come
// from traced runs only; every other metric from untraced runs only,
// since a traced run repeats some end-to-end samples on the side.
func collect(spec *Spec, runs []Result) map[seriesKey]*series {
	out := map[seriesKey]*series{}
	add := func(k seriesKey, unit string, v float64) {
		s := out[k]
		if s == nil {
			s = &series{unit: unit}
			out[k] = s
		}
		s.values = append(s.values, v)
	}
	for _, r := range runs {
		for name, m := range r.Metrics {
			if _, endToEnd, declared := spec.metric(name); (declared && !endToEnd) != r.Traced {
				continue
			}
			add(seriesKey{r.Workload, name}, m.Unit, m.Value)
		}
		if !r.Traced {
			add(seriesKey{r.Workload, "fail_frac"}, "frac", float64(r.Failed)/float64(max(1, r.Attempted)))
		}
	}
	return out
}

// Row is one (workload, metric) line of a comparison.
type Row struct {
	Workload, Metric, Unit string
	A, B                   Summary
	Verdict                string
}

// Compare compares runs B against baseline runs A, metric by metric. End-to-end
// metrics get a verdict against their BENCHMARK.json bound (simAliases
// point at the metric they repeat instead), deterministic counts must be
// equal, fail_frac may not rise; other per-layer metrics are reported
// without a verdict. Rows come in workload, then spec, order.
func Compare(spec *Spec, a, b []Result) []Row {
	sa, sb := collect(spec, a), collect(spec, b)
	var keys []seriesKey
	seen := map[seriesKey]bool{}
	for _, m := range [](map[seriesKey]*series){sa, sb} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	order := map[string]int{"fail_frac": -1}
	for i, m := range append(append([]SpecMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		order[m.Name] = i
	}
	rank := func(name string) int {
		if i, ok := order[name]; ok {
			return i
		}
		return len(order)
	}
	sort.Slice(keys, func(i, j int) bool {
		ki, kj := keys[i], keys[j]
		if ki.workload != kj.workload {
			return ki.workload < kj.workload
		}
		if ri, rj := rank(ki.metric), rank(kj.metric); ri != rj {
			return ri < rj
		}
		return ki.metric < kj.metric
	})
	var rows []Row
	for _, k := range keys {
		xa, xb := sa[k], sb[k]
		if xa == nil || xb == nil {
			continue // measured on one side only
		}
		row := Row{Workload: k.workload, Metric: k.metric, Unit: xa.unit,
			A: summarize(xa), B: summarize(xb)}
		m, endToEnd, declared := spec.metric(k.metric)
		_, sim := simWorkloads[k.workload]
		switch {
		case sim && simAliases[k.metric] != "":
			row.Verdict = AliasOf + simAliases[k.metric]
		case k.metric == "fail_frac":
			row.Verdict = Unchanged
			if slices.Max(xb.values) > slices.Max(xa.values) {
				row.Verdict = Regressed
			}
		case exactMetrics[k.metric]:
			row.Verdict = Equal
			if !allEqual(append(append([]float64(nil), xa.values...), xb.values...)) {
				row.Verdict = Changed
			}
		case declared && endToEnd:
			row.Verdict = verdict(m, xa.values, xb.values)
		}
		rows = append(rows, row)
	}
	return rows
}

func summarize(s *series) Summary {
	q1, med, q3 := quartiles(s.values)
	return Summary{Unit: s.unit, N: len(s.values), Median: med, Q1: q1, Q3: q3}
}

// verdict judges B against A for a bounded metric. The change is the
// relative difference of the medians, signed so positive is worse. When
// either side's quartile spread exceeds the bound the comparison is
// unresolved, unless every B run is better than every A run.
func verdict(m SpecMetric, a, b []float64) string {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	bound := *m.Bound
	worse := (mb - ma) / math.Abs(ma)
	allBetter := slices.Min(b) > slices.Max(a)
	if m.Better == "higher" {
		worse = -worse
	} else {
		allBetter = slices.Max(b) < slices.Min(a)
	}
	spread := math.Max((qa3-qa1)/math.Abs(ma), (qb3-qb1)/math.Abs(mb))
	switch {
	case spread > bound && allBetter:
		return Improved
	case spread > bound:
		return Unresolved
	case worse > bound:
		return Regressed
	case worse < -bound:
		return Improved
	}
	return Unchanged
}

// WriteRows prints a comparison table.
func WriteRows(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-13s %-26s %-6s %30s %30s %8s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "verdict")
	for _, r := range rows {
		change := "-"
		if r.A.Median != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(r.B.Median-r.A.Median)/math.Abs(r.A.Median))
		}
		v := r.Verdict
		if v == "" {
			v = "-"
		}
		fmt.Fprintf(w, "%-13s %-26s %-6s %30s %30s %8s  %s\n",
			r.Workload, r.Metric, r.Unit, cell(r.A), cell(r.B), change, v)
	}
}

func cell(s Summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.Median, s.Q1, s.Q3, s.N)
}

// Failing reports whether a comparison regressed: an end-to-end metric
// beyond its bound or a higher failure fraction.
func Failing(rows []Row) bool {
	for _, r := range rows {
		if r.Verdict == Regressed {
			return true
		}
	}
	return false
}

// WriteLedger writes a ledger as indented JSON.
func WriteLedger(path string, l *Ledger) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(l); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
