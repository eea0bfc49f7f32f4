package server

import (
	"net/http"
	"strconv"

	"drowsydc/internal/core"
	"drowsydc/internal/obs"
	"drowsydc/internal/trace"
)

// Metric naming scheme: the `drowsyd_` prefix carries serving-loop
// state owned by this Server (cache, pool, store cache, HTTP surface);
// the `drowsydc_` prefix carries process-wide simulation-substrate
// counters (batched-observe paths, shared-trace chunk publishes) that
// accumulate across every run the process executes, whoever drives it.
// Counters end in `_total`, gauges are bare nouns, and the request
// histogram follows the Prometheus `_bucket`/`_sum`/`_count`
// convention. Everything is read at scrape time — registering the
// exporter adds no work to any hot path.

// latencyBuckets spans the serving spectrum: catalog endpoints answer
// in microseconds, cached runs in milliseconds, fresh fleet-scale
// simulations in (tens of) seconds.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// initMetrics builds the registry and wires every serving-loop counter
// and gauge into it.
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	s.metrics = r

	r.CounterFunc("drowsyd_cache_hits_total", "",
		"Requests served from (or attached to) an existing result-cache entry.",
		func() uint64 { return s.cache.hits.Load() })
	r.CounterFunc("drowsyd_cache_misses_total", "",
		"Requests that started a new simulation job.",
		func() uint64 { return s.cache.misses.Load() })
	r.CounterFunc("drowsyd_cache_joins_total", "",
		"Single-flight deduplications: requests that attached to a still-running identical job.",
		func() uint64 { return s.cache.joins.Load() })
	r.GaugeFunc("drowsyd_cache_entries", "",
		"Result-cache entries (complete or in flight).",
		func() float64 { return float64(s.cache.len()) })
	r.CounterFunc("drowsyd_runs_total", "",
		"Simulation jobs actually executed (misses plus timeseries bypasses).",
		func() uint64 { return s.runs.Load() })

	r.GaugeFunc("drowsyd_jobs_running", "",
		"Simulation jobs currently executing.",
		func() float64 { return float64(s.pool.running.Load()) })
	r.GaugeFunc("drowsyd_jobs_queued", "",
		"Simulation jobs waiting for a pool slot.",
		func() float64 { return float64(s.pool.queued.Load()) })
	r.GaugeFunc("drowsyd_pool_capacity", "",
		"Maximum concurrently running simulation jobs.",
		func() float64 { return float64(s.pool.capacity()) })

	r.CounterFunc("drowsyd_panics_total", "",
		"Simulation panics contained by the per-job isolation barriers.",
		func() uint64 { return s.panics.Load() })
	r.CounterFunc("drowsyd_shed_total", "",
		"Jobs rejected by the bounded admission queue (429 responses).",
		func() uint64 { return s.sheds.Load() })
	r.GaugeFunc("drowsyd_quarantined_specs", "",
		"Specs currently refused (422) after repeated simulation panics.",
		func() float64 { return float64(s.quarantinedCount()) })
	r.CounterFunc("drowsyd_replayed_jobs_total", "",
		"Journal jobs re-run (or resumed from spilled checkpoints) at startup.",
		func() uint64 { return s.replayed.Load() })
	r.CounterFunc("drowsyd_spill_errors_total", "",
		"Checkpoint-spill and journal-maintenance failures (non-fatal).",
		func() uint64 { return s.spillErrors.Load() })
	s.spillBytes = r.Counter("drowsyd_spill_bytes_total", "",
		"Bytes of the checkpoint spills that reached the state dir.")
	s.spillSeconds = r.Histogram("drowsyd_spill_seconds", "",
		"Wall time of each checkpoint spill: write, fsync and rename.", latencyBuckets)
	r.GaugeFunc("drowsyd_ready", "",
		"1 once journal replay settled and until draining starts, else 0.",
		func() float64 {
			if s.ready.Load() && !s.draining.Load() {
				return 1
			}
			return 0
		})

	r.GaugeFunc("drowsyd_store_entries", "",
		"Distinct workload structures in the server-lifetime trace store.",
		func() float64 { return float64(s.stores.Len()) })
	r.CounterFunc("drowsyd_store_promotions_total", "",
		"Runs served an already-cached trace/timeline store (cross-request sharing events).",
		func() uint64 { return s.stores.Promotions() })

	r.CounterFunc("drowsydc_observe_fastpath_total", "",
		"Batched model-cell updates that skipped the eq. 5 exponential (memo hits + cells at zero).",
		core.ObserveFastPathCount)
	r.CounterFunc("drowsydc_observe_exact_total", "",
		"Batched model-cell updates that evaluated the eq. 5 exponential.",
		core.ObserveExactCount)
	r.CounterFunc("drowsydc_trace_chunk_publishes_total", "",
		"Activity and timeline memo chunks computed and published across all memos in the process.",
		trace.PublishCount)
}

// observeRequest records one finished request into the HTTP metrics:
// a per-path/per-code requests counter and a per-path latency
// histogram. Label series are minted on demand; the registry returns
// the existing series on every later request, so the steady-state cost
// is one short mutex hold plus two atomic adds.
func (s *Server) observeRequest(path string, code int, seconds float64) {
	s.metrics.Counter("drowsyd_http_requests_total",
		`code="`+strconv.Itoa(code)+`",path="`+path+`"`,
		"HTTP requests by path and status code.").Inc()
	s.metrics.Histogram("drowsyd_http_request_duration_seconds",
		`path="`+path+`"`,
		"HTTP request latency by path.", latencyBuckets).Observe(seconds)
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "server: GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w) //nolint:errcheck // client-side failure only
}
