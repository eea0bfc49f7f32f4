package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// Tests for the daemon's observability surface: /metrics exposition,
// the grown /v1/stats document, the timeseries response shape and the
// structured access log. The simulation-bearing cases ride the same
// small family the contract tests use, so they stay fast.

const obsSpec = `{"family":"always-on-mix","hosts":6,"horizon_days":7}`

// quiesce waits for every submitted job to finish, so counter
// assertions cannot race the pool's bookkeeping.
func quiesce(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServeMetrics scrapes /metrics before and after traffic: the
// fresh exposition carries zeroed serving-loop counters, and a
// miss-then-hit run pair moves exactly the counters it should.
func TestServeMetrics(t *testing.T) {
	s, ts := newTestServer(t)
	status, body := get(t, ts, "/metrics")
	if status != 200 {
		t.Fatalf("metrics status %d", status)
	}
	fresh := string(body)
	for _, want := range []string{
		"# TYPE drowsyd_cache_hits_total counter",
		"drowsyd_cache_hits_total 0",
		"drowsyd_cache_misses_total 0",
		"# TYPE drowsyd_jobs_running gauge",
		"drowsyd_pool_capacity ",
		"drowsydc_trace_chunk_publishes_total",
	} {
		if !strings.Contains(fresh, want) {
			t.Errorf("fresh /metrics missing %q:\n%s", want, fresh)
		}
	}

	post(t, ts, "/v1/run", obsSpec)
	post(t, ts, "/v1/run", obsSpec)
	quiesce(t, s)
	_, body = get(t, ts, "/metrics")
	warmed := string(body)
	for _, want := range []string{
		"drowsyd_cache_hits_total 1",
		"drowsyd_cache_misses_total 1",
		"drowsyd_cache_joins_total 0",
		"drowsyd_runs_total 1",
		"drowsyd_cache_entries 1",
		`drowsyd_http_requests_total{code="200",path="/v1/run"} 2`,
		`drowsyd_http_request_duration_seconds_count{path="/v1/run"} 2`,
		`drowsyd_http_request_duration_seconds_bucket{path="/metrics",le="+Inf"} 1`,
	} {
		if !strings.Contains(warmed, want) {
			t.Errorf("warmed /metrics missing %q:\n%s", want, warmed)
		}
	}
	if status, _, _ := post(t, ts, "/metrics", "{}"); status != 405 {
		t.Fatalf("POST /metrics = %d, want 405", status)
	}

	// Every memo's chunk publications count, timeline memos included.
	// The second run misses the result cache (another shard count) but
	// finds the workload's shared activity memos warm, so only its
	// per-call member timeline memos can move the counter.
	var before uint64
	for _, extra := range []string{"", `,"shard_workers":2`} {
		before = scrapeCounter(t, ts, "drowsydc_trace_chunk_publishes_total")
		spec := `{"family":"always-on-mix","hosts":6,"horizon_days":7,"resolution":"event"` + extra + `}`
		if status, _, _ := post(t, ts, "/v1/run", spec); status != 200 {
			t.Fatalf("event-resolution run status %d", status)
		}
		quiesce(t, s)
	}
	if after := scrapeCounter(t, ts, "drowsydc_trace_chunk_publishes_total"); after <= before {
		t.Errorf("event-resolution rerun left drowsydc_trace_chunk_publishes_total at %d", after)
	}
}

// scrapeCounter returns the value of the unlabeled integer sample name
// on /metrics.
func scrapeCounter(t *testing.T, ts *httptest.Server, name string) uint64 {
	t.Helper()
	_, body := get(t, ts, "/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no %s sample", name)
	return 0
}

// TestServeStatsGolden pins the grown stats document. Workers is fixed
// so pool_capacity does not follow the host's GOMAXPROCS, and the pool
// is drained before reading so the running/queued gauges are settled.
func TestServeStatsGolden(t *testing.T) {
	s := mustNew(t, Config{Version: "test", Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	post(t, ts, "/v1/run", obsSpec)
	post(t, ts, "/v1/run", obsSpec)
	quiesce(t, s)
	status, body := get(t, ts, "/v1/stats")
	if status != 200 {
		t.Fatalf("stats status %d", status)
	}
	serverGolden(t, "serve_stats.golden", body)
}

// TestServeTimeseries asserts the flight-recorder response shape: the
// cache-bypass header, one deterministic sample line per (cell, hour),
// and the plain run report — byte-identical to the cached endpoint's
// body — as the terminal chunk.
func TestServeTimeseries(t *testing.T) {
	s, ts := newTestServer(t)
	_, _, plain := post(t, ts, "/v1/run", obsSpec)

	status, cache, body := post(t, ts, "/v1/run?timeseries=1", obsSpec)
	if status != 200 {
		t.Fatalf("timeseries status %d: %s", status, body)
	}
	if cache != "bypass" {
		t.Fatalf("timeseries cache header %q, want bypass", cache)
	}
	// The report is the first line equal to "{" — everything before it
	// is sample lines, everything from it on must match the plain body.
	sep := bytes.Index(body, []byte("\n{\n"))
	if sep < 0 {
		t.Fatalf("no report chunk in timeseries response")
	}
	samples, report := body[:sep+1], body[sep+1:]
	if !bytes.Equal(report, plain) {
		t.Fatalf("timeseries report chunk differs from the plain run body")
	}
	// 4 policy cells × 168 hours.
	if n := bytes.Count(samples, []byte("\n")); n != 4*168 {
		t.Fatalf("%d sample lines, want %d", n, 4*168)
	}
	if !bytes.HasPrefix(samples, []byte(`{"policy":`)) {
		t.Fatalf("sample stream starts %q", samples[:40])
	}

	// Determinism over HTTP: the body field spelling must produce the
	// identical stream, and nothing may have landed in the result cache
	// beyond the plain run's entry.
	spec := strings.TrimSuffix(obsSpec, "}") + `,"timeseries":true}`
	_, _, again := post(t, ts, "/v1/run", spec)
	if !bytes.Equal(body, again) {
		t.Fatal("two timeseries runs differ")
	}
	quiesce(t, s)
	if st := s.Stats(); st.CacheEntries != 1 || st.Runs != 3 {
		t.Fatalf("after 2 bypass runs: %+v", st)
	}

	// The sweep endpoint rejects the run-only field.
	status, _, body = post(t, ts, "/v1/sweep",
		`{"family":"diurnal-office","param":"grace","values":[0],"timeseries":true}`)
	if status != 400 || !strings.Contains(string(body), "run-only") {
		t.Fatalf("sweep with timeseries = %d %s", status, body)
	}
}

// TestAccessLog covers both line formats and the /healthz exemption.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := mustNew(t, Config{Version: "test", AccessLog: &buf, LogFormat: "json"})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	post(t, ts, "/v1/run", obsSpec)
	get(t, ts, "/healthz")
	get(t, ts, "/v1/stats")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d log lines, want 2 (healthz must be quiet):\n%s", len(lines), buf.String())
	}
	run := lines[0]
	for _, want := range []string{
		`"method":"POST"`, `"path":"/v1/run"`, `"cache":"miss"`, `"status":200`,
		`"spec":"`, `"duration_ms":`, `"bytes":`,
	} {
		if !strings.Contains(run, want) {
			t.Errorf("json run line missing %s: %s", want, run)
		}
	}
	if strings.Contains(run, `"spec":"-"`) {
		t.Errorf("run line has no spec hash: %s", run)
	}
	if !strings.Contains(lines[1], `"spec":"-"`) {
		t.Errorf("stats line should have a dash spec: %s", lines[1])
	}

	buf.Reset()
	s2 := mustNew(t, Config{Version: "test", AccessLog: &buf}) // default text format
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	get(t, ts2, "/v1/families")
	line := strings.TrimSpace(buf.String())
	for _, want := range []string{"method=GET", "path=/v1/families", "status=200", "dur=", "bytes="} {
		if !strings.Contains(line, want) {
			t.Errorf("text line missing %s: %s", want, line)
		}
	}
}

// TestSpecHashStable pins the request-identity tag: equal cache keys
// hash equally, different keys differ, and the form is fixed-base hex.
func TestSpecHashStable(t *testing.T) {
	a, b := specHash("run|x"), specHash("run|x")
	if a != b {
		t.Fatalf("specHash not deterministic: %s vs %s", a, b)
	}
	if specHash("run|y") == a {
		t.Fatal("distinct keys hashed identically")
	}
	if len(a) == 0 || len(a) > 16 {
		t.Fatalf("unexpected hash form %q", a)
	}
}
