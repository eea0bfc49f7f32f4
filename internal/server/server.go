package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"drowsydc/internal/obs"
	"drowsydc/internal/scenario"
)

// Config tunes a Server. The zero value serves with GOMAXPROCS job
// workers, default limits and a build-info-derived code version.
type Config struct {
	// Workers bounds concurrently running simulation jobs (0 =
	// GOMAXPROCS). Excess jobs queue; each job's internal parallelism
	// is the request's workers/shard_workers knobs.
	Workers int
	// Limits bounds what one request may ask for (zero fields =
	// defaults; see Limits).
	Limits Limits
	// Version stamps the result-cache key. The key's hash also names the
	// checkpoint spill files under StateDir, which outlive the process,
	// so a daemon never resumes from spills, nor serves bytes, that a
	// binary of another version computed. Empty selects the module
	// build revision when available, else "dev".
	Version string
	// AccessLog, when non-nil, receives one structured line per request
	// (except /healthz — liveness probes would drown the log). Lines are
	// written atomically; the writer need not be synchronized.
	AccessLog io.Writer
	// LogFormat selects the access-log line format: "text" (default) or
	// "json". Ignored without AccessLog.
	LogFormat string
	// StateDir, when non-empty, makes jobs durable: an fsync'd journal
	// of admitted specs plus per-cell checkpoint spill files live under
	// it, and on restart the pending backlog replays (resuming from
	// spilled checkpoints) before /readyz reports ready. Empty keeps the
	// daemon purely in-memory.
	StateDir string
	// MaxQueue bounds the admission queue: once this many jobs wait for
	// a pool slot, new simulations are shed with 429 + Retry-After
	// (0 = default 64).
	MaxQueue int
	// MaxSimBytes caps the estimated per-job simulation working set;
	// jobs estimated above it are rejected with 413 and a descriptive
	// error (0 = default 4 GiB). See estimateSimBytes.
	MaxSimBytes int64
	// CheckpointEveryHours sets the checkpoint spill cadence in
	// simulated hours (0 = monthly, 744). Ignored without StateDir.
	CheckpointEveryHours int
}

// Server is the drowsyd service: handlers, job pool, result cache and
// the server-lifetime shared trace store.
type Server struct {
	limits      Limits
	version     string
	pool        *pool
	cache       *resultCache
	stores      *scenario.StoreCache
	mux         *http.ServeMux
	runs        atomic.Uint64
	metrics     *obs.Registry
	accessLog   *accessLogger
	maxSimBytes int64

	// Crash-safety state (see durable.go). durable is nil without a
	// state dir; jobCtx is the root context every simulation runs under,
	// cancelled in the second drain phase.
	durable     *durableState
	journalMu   sync.Mutex
	jobCtx      context.Context
	jobCancel   context.CancelFunc
	ready       atomic.Bool
	draining    atomic.Bool
	panics      atomic.Uint64
	sheds       atomic.Uint64
	replayed    atomic.Uint64
	spillErrors atomic.Uint64
	quarMu      sync.Mutex
	strikes     map[string]int

	// spillBytes and spillSeconds count the checkpoint spills that
	// reached disk: bytes written, and each spill's write, fsync and
	// rename wall time.
	spillBytes   *obs.Counter
	spillSeconds *obs.Histogram

	// Test seams: the production wiring points at scenario.RunFamily /
	// scenario.RunFamilySweep; concurrency tests substitute gated stubs
	// so single-flight behaviour is assertable without timing games.
	runFamily func(name string, p scenario.Params, opt scenario.Options) (*scenario.Report, error)
	runSweep  func(name string, p scenario.Params, sw scenario.Sweep, opt scenario.Options) (*scenario.SweepReport, error)
}

// New builds a Server. The only error path is durable-state
// initialization (an unusable -state-dir must fail startup, not limp
// along without the durability it was asked for).
func New(cfg Config) (*Server, error) {
	s := &Server{
		limits:      cfg.Limits.withDefaults(),
		version:     cfg.Version,
		pool:        newPool(cfg.Workers, cfg.MaxQueue),
		cache:       newResultCache(),
		stores:      scenario.NewStoreCache(),
		maxSimBytes: cfg.MaxSimBytes,
		runFamily:   scenario.RunFamily,
		runSweep:    scenario.RunFamilySweep,
	}
	if s.maxSimBytes <= 0 {
		s.maxSimBytes = defaultMaxSimBytes
	}
	s.jobCtx, s.jobCancel = context.WithCancel(context.Background())
	if s.version == "" {
		s.version = buildVersion()
	}
	if cfg.AccessLog != nil {
		format := cfg.LogFormat
		if format == "" {
			format = "text"
		}
		s.accessLog = &accessLogger{w: cfg.AccessLog, format: format}
	}
	if cfg.StateDir != "" {
		if err := s.initDurable(cfg.StateDir, cfg.CheckpointEveryHours); err != nil {
			return nil, err
		}
	}
	s.initMetrics()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/run", s.handleRun)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/families", s.handleFamilies)
	s.mux.HandleFunc("/v1/params", s.handleParams)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	// Replay runs async behind the readiness gate; with no durable
	// state it flips ready immediately.
	go s.recoverPending()
	return s, nil
}

// Close releases the durable state (the journal file). The pool should
// be drained first; Close does not wait for jobs.
func (s *Server) Close() error {
	s.jobCancel()
	if s.durable != nil {
		s.journalMu.Lock()
		defer s.journalMu.Unlock()
		return s.durable.journal.Close()
	}
	return nil
}

// buildVersion derives the code-version cache-key component from the
// embedded VCS revision, falling back to "dev" in uncommitted trees
// and plain `go test` binaries.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				return kv.Value
			}
		}
	}
	return "dev"
}

// Handler returns the daemon's HTTP handler: the route mux wrapped in
// the metrics/access-log middleware.
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// Stats is the observable state of the serving loop, surfaced by
// GET /v1/stats. Hits count requests served from (or attached to) an
// existing cache entry; Joins are the subset of hits that attached to
// a still-in-flight job (single-flight deduplications proper); Misses
// count requests that started a simulation; Runs counts simulations
// actually executed — with single-flight working, Runs == Misses plus
// any cache-bypassing timeseries runs. StorePromotions counts runs
// that were served an already-cached trace/timeline store;
// PoolCapacity is the running-jobs ceiling (QueuedJobs grows only once
// RunningJobs hits it).
type Stats struct {
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
	Joins           uint64 `json:"joins"`
	Runs            uint64 `json:"runs"`
	CacheEntries    int    `json:"cache_entries"`
	StoreEntries    int    `json:"store_entries"`
	StorePromotions uint64 `json:"store_promotions"`
	RunningJobs     int64  `json:"running_jobs"`
	QueuedJobs      int64  `json:"queued_jobs"`
	PoolCapacity    int    `json:"pool_capacity"`
	// Crash-safety counters: jobs shed by the bounded queue (429s),
	// simulation panics contained by the isolation barriers, specs
	// currently quarantined after repeated panics, journal jobs replayed
	// at startup, and spill/journal maintenance failures.
	ShedJobs         uint64 `json:"shed_jobs"`
	Panics           uint64 `json:"panics"`
	QuarantinedSpecs int    `json:"quarantined_specs"`
	ReplayedJobs     uint64 `json:"replayed_jobs"`
	SpillErrors      uint64 `json:"spill_errors"`
}

// Stats snapshots the counters (exported for tests and the stats
// handler; individually loaded, so a concurrent request may move one
// counter between loads — fine for observability).
func (s *Server) Stats() Stats {
	return Stats{
		Hits:            s.cache.hits.Load(),
		Misses:          s.cache.misses.Load(),
		Joins:           s.cache.joins.Load(),
		Runs:            s.runs.Load(),
		CacheEntries:    s.cache.len(),
		StoreEntries:    s.stores.Len(),
		StorePromotions: s.stores.Promotions(),
		RunningJobs:     s.pool.running.Load(),
		QueuedJobs:      s.pool.queued.Load(),
		PoolCapacity:    s.pool.capacity(),

		ShedJobs:         s.sheds.Load(),
		Panics:           s.panics.Load(),
		QuarantinedSpecs: s.quarantinedCount(),
		ReplayedJobs:     s.replayed.Load(),
		SpillErrors:      s.spillErrors.Load(),
	}
}

// errorEnvelope is the one error shape every endpoint emits. The error
// string inside is exactly what drowsyctl would print to stderr for
// the same mistake (request validation reuses the scenario package's
// validation), so the golden-pinned envelope doubles as a contract on
// the error text.
type errorEnvelope struct {
	Error string `json:"error"`
}

// writeError emits the error envelope with the same indented encoding
// every report uses.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(errorEnvelope{Error: msg}) //nolint:errcheck // nothing left to tell the client
}

// readSpec decodes and bounds a request body. The 1 MB cap is far
// above any legitimate spec (the largest is a maximal sweep grid,
// under a kilobyte) and keeps a hostile body from ballooning memory.
func readSpec(w http.ResponseWriter, r *http.Request) (*JobSpec, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("server: reading request body: %v", err)
	}
	return ParseJobSpec(body)
}

// handleRun serves POST /v1/run: body is a run JobSpec, response is
// byte-identical to `drowsyctl scenario run -name F ...` JSON. With
// timeseries set (body field or ?timeseries=1) the response becomes
// the flight-recorder ndjson — one per-hour sample line per (cell,
// hour) — followed by that same report, and bypasses the result cache
// (the cache stores exact response bytes of the plain report shape;
// see respondTimeseries).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "server: POST required")
		return
	}
	spec, err := readSpec(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if r.URL.Query().Get("timeseries") == "1" {
		spec.Timeseries = true
	}
	timeseries := spec.Timeseries
	spec.Timeseries = false // response-shape knob, not part of the run identity
	sc, err := spec.BuildRun(s.limits)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := cacheKey("run", sc, spec.params(), s.version)
	w.Header().Set("X-Drowsyd-Spec", specHash(key))
	if err := s.checkBudget(sc); err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	if s.quarantined(specHash(key)) {
		writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf(
			"server: spec %s is quarantined after %d simulation panics; restart the daemon to retry it",
			specHash(key), poisonStrikes))
		return
	}
	if timeseries {
		if !s.pool.hasRoom() {
			s.shed(w)
			return
		}
		s.respondTimeseries(w, r, spec, key)
		return
	}
	e, leader := s.cache.lookup(key, sc.CellCount())
	if leader {
		s.admitJob(key, "run", spec, e, func(opt scenario.Options) (jsonReport, error) {
			return s.runFamily(spec.Family, spec.params(), opt)
		})
	}
	s.respond(w, r, e, leader, false)
}

// shed writes the 429 overload response with its retry advice.
func (s *Server) shed(w http.ResponseWriter) {
	s.sheds.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeError(w, http.StatusTooManyRequests, errShed.Error())
}

// admitJob is the leader's admission pipeline: overload shedding (the
// bounded queue), durable journaling, then job start. A shed leader
// fails its entry with errShed so its own response — and any follower
// that joined the brief in-flight window — renders as 429, never as a
// cached failure (fail removes the entry; the next identical request
// retries admission from scratch).
func (s *Server) admitJob(key, kind string, spec *JobSpec, e *entry, run func(scenario.Options) (jsonReport, error)) {
	if !s.pool.hasRoom() {
		s.sheds.Add(1)
		s.cache.fail(key, e, errShed)
		return
	}
	if err := s.journalAdmit(key, kind, spec); err != nil {
		s.cache.fail(key, e, err)
		return
	}
	s.startJob(key, specHash(key), e, run)
}

// respondTimeseries runs the job with a flight recorder attached and
// streams the recorded per-hour samples (ndjson, deterministic — two
// identical requests produce byte-identical lines) followed by the
// ordinary report as the terminal chunk; a line-wise reader can split
// on the first line equal to "{", exactly as with streaming sweeps.
// The result cache is bypassed on both sides — nothing is looked up
// and nothing is stored — because cached entries hold plain-report
// bytes; X-Drowsyd-Cache says so. The job still runs under the bounded
// pool and the shared store cache, and still counts as a run.
func (s *Server) respondTimeseries(w http.ResponseWriter, r *http.Request, spec *JobSpec, key string) {
	fr := &obs.FlightRecorder{}
	type result struct {
		rep jsonReport
		err error
	}
	ch := make(chan result, 1) // buffered: the job must never block on a gone client
	s.pool.Go(func() {
		s.runs.Add(1)
		rep, err, _ := s.runShielded(func() (jsonReport, error) {
			return s.runFamily(spec.Family, spec.params(), scenario.Options{
				Stores:  s.stores,
				Context: s.jobCtx,
				Probe:   fr.ProbeFor,
			})
		})
		ch <- result{rep, err}
	})
	var res result
	select {
	case res = <-ch:
	case <-r.Context().Done():
		// Client gone; the job finishes detached and its result is
		// dropped (nothing is cached on this path).
		return
	}
	if res.err != nil {
		writeError(w, http.StatusInternalServerError, res.err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Drowsyd-Cache", "bypass")
	w.Header().Set("X-Drowsyd-Spec", specHash(key))
	if err := fr.WriteNDJSON(w); err != nil {
		return // client-side failure only
	}
	res.rep.WriteJSON(w) //nolint:errcheck // client-side failure only
}

// handleSweep serves POST /v1/sweep: body is a sweep JobSpec, response
// is byte-identical to `drowsyctl scenario sweep ...` JSON — or, with
// stream set (body field or ?stream=1), chunked progress events
// followed by that same report.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "server: POST required")
		return
	}
	spec, err := readSpec(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if r.URL.Query().Get("stream") == "1" {
		spec.Stream = true
	}
	stream := spec.Stream
	spec.Stream = false // not part of the sweep identity; see cacheKey
	sc, err := spec.BuildSweep(s.limits)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := cacheKey("sweep", sc, spec.params(), s.version)
	w.Header().Set("X-Drowsyd-Spec", specHash(key))
	if err := s.checkBudget(sc); err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	if s.quarantined(specHash(key)) {
		writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf(
			"server: spec %s is quarantined after %d simulation panics; restart the daemon to retry it",
			specHash(key), poisonStrikes))
		return
	}
	e, leader := s.cache.lookup(key, sc.CellCount())
	if leader {
		s.admitJob(key, "sweep", spec, e, func(opt scenario.Options) (jsonReport, error) {
			return s.runSweep(spec.Family, spec.params(),
				scenario.Sweep{Param: spec.Param, Values: sc.Sweep.Values}, opt)
		})
	}
	s.respond(w, r, e, leader, stream)
}

// jsonReport is what a job computes: both report forms render through
// the same WriteJSON discipline.
type jsonReport interface{ WriteJSON(io.Writer) error }

// startJob submits the leader's simulation to the bounded pool. The
// job runs detached from the request context (pool.Go documents why)
// but under the server's root job context, so the drain path can cancel
// it cooperatively at an hour boundary. Execution goes through the
// panic barrier (runShielded); with durable state, checkpoints spill
// under the state dir and the job's journal entry, under hash, is
// tombstoned when the job settles — except on drain cancellation, where
// it stays pending so the next start resumes from the spills.
func (s *Server) startJob(key, hash string, e *entry, run func(scenario.Options) (jsonReport, error)) {
	s.pool.Go(func() {
		s.runs.Add(1)
		opt := scenario.Options{
			Stores:     s.stores,
			Context:    s.jobCtx,
			Checkpoint: s.planFor(key),
			Progress: func(done, total int) {
				select {
				case e.progress <- progressEvent{Done: done, Total: total}:
				default: // buffer sized to the cell count; never block a simulation
				}
			},
		}
		rep, err, panicked := s.runShielded(func() (jsonReport, error) { return run(opt) })
		if panicked {
			s.strike(specHash(key))
		}
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				// Deterministic failure: replaying it would only fail
				// again. Cancellation instead leaves the entry pending
				// for resume-on-restart.
				s.journalComplete(hash, key)
			}
			s.cache.fail(key, e, err)
			return
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			s.journalComplete(hash, key)
			s.cache.fail(key, e, err)
			return
		}
		s.cache.fulfill(e, buf.Bytes())
		s.journalComplete(hash, key)
	})
}

// respond waits for the entry and writes the response. Streaming
// leaders additionally forward progress events as they arrive — one
// compact JSON object per line, flushed per event, with the final
// report (bytes identical to the batch response) as the terminal
// chunk; a line-wise reader can split on the first line equal to "{".
// Followers and cache hits skip straight to the report: their
// simulation either ran already or is someone else's to narrate.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, e *entry, leader, stream bool) {
	cacheState := "hit"
	if leader {
		cacheState = "miss"
	}
	if stream && leader {
		s.respondStreaming(w, r, e, cacheState)
		return
	}
	select {
	case <-e.done:
	case <-r.Context().Done():
		// Client gone; the job (if any) continues detached and will
		// fulfill the cache for the next requester.
		return
	}
	if e.err != nil {
		if errors.Is(e.err, errShed) {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			writeError(w, http.StatusTooManyRequests, e.err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, e.err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Drowsyd-Cache", cacheState)
	w.Write(e.body) //nolint:errcheck // client-side failure only
}

// respondStreaming is the leader's streaming path. Progress events can
// arrive out of completion order (cells finish on concurrent workers);
// the monotone filter keeps the emitted done counts non-decreasing.
func (s *Server) respondStreaming(w http.ResponseWriter, r *http.Request, e *entry, cacheState string) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Drowsyd-Cache", cacheState)
	flusher, _ := w.(http.Flusher)
	maxDone := 0
	emit := func(ev progressEvent) {
		if ev.Done <= maxDone {
			return
		}
		maxDone = ev.Done
		fmt.Fprintf(w, "{\"event\":\"progress\",\"done\":%d,\"total\":%d}\n", ev.Done, ev.Total)
		if flusher != nil {
			flusher.Flush()
		}
	}
	for {
		select {
		case ev := <-e.progress:
			emit(ev)
		case <-e.done:
			// Drain events that raced the close, then emit the report.
			for {
				select {
				case ev := <-e.progress:
					emit(ev)
					continue
				default:
				}
				break
			}
			if e.err != nil {
				if errors.Is(e.err, errShed) {
					w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
					writeError(w, http.StatusTooManyRequests, e.err.Error())
					return
				}
				writeError(w, http.StatusInternalServerError, e.err.Error())
				return
			}
			w.Write(e.body) //nolint:errcheck // client-side failure only
			return
		case <-r.Context().Done():
			return
		}
	}
}

// familyInfo is one catalog row of GET /v1/families.
type familyInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Probes      string `json:"probes"`
	Hosts       int    `json:"hosts"`
	VMs         int    `json:"vms"`
	HorizonDays int    `json:"horizon_days"`
}

// handleFamilies serves the family catalog — the JSON twin of
// `drowsyctl scenario list`, with each family built at its default
// scale for the size columns.
func (s *Server) handleFamilies(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "server: GET required")
		return
	}
	fams := scenario.Families()
	out := struct {
		Families []familyInfo `json:"families"`
	}{Families: make([]familyInfo, 0, len(fams))}
	for _, f := range fams {
		sc := f.Build(scenario.Params{})
		out.Families = append(out.Families, familyInfo{
			Name:        f.Name,
			Description: f.Description,
			Probes:      f.Probes,
			Hosts:       sc.TotalHosts(),
			VMs:         sc.TotalVMs(),
			HorizonDays: sc.HorizonHours / 24,
		})
	}
	writeJSON(w, out)
}

// paramInfo is one catalog row of GET /v1/params.
type paramInfo struct {
	Name        string `json:"name"`
	Unit        string `json:"unit"`
	Description string `json:"description"`
}

// handleParams serves the sweep-parameter catalog — the JSON twin of
// `drowsyctl scenario params`.
func (s *Server) handleParams(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "server: GET required")
		return
	}
	params := scenario.SweepParams()
	out := struct {
		Params []paramInfo `json:"params"`
	}{Params: make([]paramInfo, 0, len(params))}
	for _, p := range params {
		out.Params = append(out.Params, paramInfo{Name: p.Name, Unit: p.Unit, Description: p.Description})
	}
	writeJSON(w, out)
}

// handleStats serves the serving-loop counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "server: GET required")
		return
	}
	writeJSON(w, s.Stats())
}

// handleHealth is the liveness probe.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n") //nolint:errcheck
}

// writeJSON emits v with the same indented encoding the reports use —
// one JSON dialect across the whole surface.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client-side failure only
}
