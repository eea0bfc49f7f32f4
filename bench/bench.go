// Package bench is drowsybench, the repository's benchmark: four
// workloads that drive the simulator and drowsyd from the outside, their
// end-to-end metrics, the per-layer metrics a traced run adds, and the
// comparison of two sets of runs against the bounds in BENCHMARK.json.
//
// The benchmark touches the program only through public calls
// (scenario.BuildFamily/Run/RunFamily/RunFamilySweep, Report.WriteJSON,
// the observe-only probe with phase timings, Options.Checkpoint with
// checkpoint.Encode/Decode, and server.New(...).Handler() on a loopback
// listener with the server's spec decoding). Every timer lives in this
// package, around those calls.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Config selects one benchmark run of one workload.
type Config struct {
	// Workload names the workload (see Workloads).
	Workload string
	// Seed derives the inputs: round k of seed s runs inputs derived from
	// (s, k), and (1, 0) is the registered family exactly.
	Seed uint64
	// Seconds is the measured window. Rounds keep starting until the
	// next one is predicted to end past it (at least minRounds run).
	Seconds float64
	// Traced runs the per-layer pass: probe timings, checkpoint capture,
	// spans and the outside timers, interleaved with untraced rounds so
	// the tracing overhead is measured on the same inputs.
	Traced bool
	// Smoke shrinks every workload to one small round, for tests.
	Smoke bool
}

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the outcome of one benchmark run of one workload.
type Result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	Smoke    bool   `json:"smoke,omitempty"`
	// Rounds is the number of rounds run: scenario runs for the
	// simulator workloads, request mixes on a fresh daemon for
	// drowsyd-mix.
	Rounds int `json:"rounds"`
	// Correct is false when any output check failed.
	Correct bool `json:"correct"`
	// Attempted counts timed operations (scenario runs or HTTP
	// requests); Failed counts those that errored or failed a check.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Errors holds the first few check failures, for diagnosis.
	Errors  []string          `json:"errors,omitempty"`
	Metrics map[string]Metric `json:"metrics"`
	// Spans is the traced run's span log (traced runs only).
	Spans []Span `json:"spans,omitempty"`
}

// Workload is one benchmark workload. BENCHMARK.json and README.md say
// why each was chosen.
type Workload struct {
	Name string
	run  func(cfg Config, r *recorder) error
}

// minRounds is the fewest rounds a full-scale run makes, so every
// median (set-up time included) has at least three samples behind it.
const minRounds = 3

// maxErrors bounds the check failures a Result keeps verbatim.
const maxErrors = 8

// Workloads returns the benchmark's workloads in their canonical order.
func Workloads() []Workload {
	var ws []Workload
	for _, name := range []string{"fleet-hourly", "hetero-year", "event-lossy"} {
		ws = append(ws, Workload{Name: name, run: simWorkloads[name].run})
	}
	return append(ws, Workload{Name: "drowsyd-mix", run: runDrowsyd})
}

// lookup finds a workload by name.
func lookup(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Run executes one benchmark run. An error means the benchmark itself
// could not run (bad configuration, a failed listener); failed output
// checks are reported through Result.Correct and Result.Failed instead.
func Run(cfg Config) (*Result, error) {
	w, ok := lookup(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 && !cfg.Smoke {
		return nil, fmt.Errorf("bench: measured window must be positive (got %v s)", cfg.Seconds)
	}
	r := &recorder{metrics: map[string]Metric{}}
	if cfg.Traced {
		r.tr = newTracer()
	}
	root := r.tr.start(0, "workload", "name", w.Name)
	r.root = root.id
	if err := w.run(cfg, r); err != nil {
		return nil, err
	}
	root.end()
	res := &Result{
		Workload:  w.Name,
		Seed:      cfg.Seed,
		Traced:    cfg.Traced,
		Smoke:     cfg.Smoke,
		Rounds:    r.rounds,
		Attempted: r.attempted,
		Failed:    r.failed,
		Errors:    r.errors,
		Metrics:   r.metrics,
		Spans:     r.tr.spans(),
	}
	res.Correct = r.failed == 0 && len(r.errors) == 0
	return res, nil
}

// recorder accumulates one run's counters, check failures and metrics.
// Only the run's own goroutine uses it.
type recorder struct {
	attempted int
	failed    int
	rounds    int
	errors    []string
	metrics   map[string]Metric
	tr        *tracer
	root      int64
}

// op counts one timed operation, failed when err is non-nil.
func (r *recorder) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.note(err)
	}
}

// check records a failed output check that is not tied to one timed
// operation (a post-window cross-check, a digest mismatch).
func (r *recorder) check(err error) {
	if err != nil {
		r.note(err)
	}
}

func (r *recorder) note(err error) {
	if len(r.errors) < maxErrors {
		r.errors = append(r.errors, err.Error())
	} else if len(r.errors) == maxErrors {
		r.errors = append(r.errors, "(further errors omitted)")
	}
}

// set stores a metric.
func (r *recorder) set(name string, v float64, unit string) {
	r.metrics[name] = Metric{Value: v, Unit: unit}
}

// window tracks a measured window and predicts whether another round
// fits in it.
type window struct {
	start   time.Time
	seconds float64
	smoke   bool
	rounds  int
	walls   []float64
}

func newWindow(cfg Config) *window {
	return &window{start: time.Now(), seconds: cfg.Seconds, smoke: cfg.Smoke}
}

// more reports whether to start another round: always up to minRounds
// (one in smoke mode), then only while the median round so far would
// still end inside the window.
func (w *window) more() bool {
	switch {
	case w.smoke:
		return w.rounds == 0
	case w.rounds < minRounds:
		return true
	}
	return time.Since(w.start).Seconds()+median(w.walls) <= w.seconds
}

// done records one finished round of the given wall time (the full
// round, checks included, since that is what the window pays for).
func (w *window) done(roundWall float64) {
	w.rounds++
	w.walls = append(w.walls, roundWall)
}

// setupReps is how often a run sets up per round: set-up takes
// microseconds to milliseconds, so one sample per round is too noisy.
const setupReps = 5

// runtimeSample reads the allocation and GC counters the runtime layer
// metrics are deltas of.
type runtimeSample struct{ allocBytes, gcCycles uint64 }

var runtimeKeys = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return runtimeSample{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// heapSampler tracks the peak of the runtime's live-heap metric (the
// heap the latest GC marked live) round by round. It polls from its own
// goroutine: the metric changes at every GC cycle, several times inside
// one round. A GC that happens to land on a short-lived transient reads
// higher than the rest, so runs report the median of the round peaks.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64 // since the last take
}

const heapPollInterval = 5 * time.Millisecond

var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapPollInterval)
		defer t.Stop()
		for {
			h.poll()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// poll folds the current live heap into the peak. Reading under the
// lock keeps a read from before a take out of the next interval.
func (h *heapSampler) poll() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(liveHeap)
	h.peak = max(h.peak, liveHeap[0].Value.Uint64())
	return h.peak
}

// take returns the peak live heap in MB since the previous take and
// starts a new interval.
func (h *heapSampler) take() float64 {
	p := h.poll()
	h.mu.Lock()
	h.peak = 0
	h.mu.Unlock()
	return float64(p) / (1 << 20)
}

// close stops the sampler and waits for its goroutine.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// settle runs a full GC so the next window starts from a clean heap.
func settle() { runtime.GC() }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of
// xs, computed as Python's statistics.quantiles(xs, n=4) does (the
// "exclusive" method), so spreads reported here match spreads computed
// from the result files with Python. A single sample is its own
// quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, m := 4, len(s)+1
	q := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// overhead is the tracing overhead of paired runs of the same inputs:
// the median of traced ÷ untraced wall, minus one. The median of the
// pair ratios keeps one disturbed pair from deciding it.
func overhead(traced, plain []float64) float64 {
	if len(traced) == 0 {
		return 0
	}
	ratios := make([]float64, len(traced))
	for i := range traced {
		ratios[i] = traced[i] / plain[i]
	}
	return median(ratios) - 1
}

// ratio returns x ÷ y, or 0 when y is 0 (no successful operation was
// timed), so a run whose operations all failed still reports finite
// metrics next to its failure count.
func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
