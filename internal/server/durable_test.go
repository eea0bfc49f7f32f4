package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"drowsydc/internal/checkpoint"
	"drowsydc/internal/scenario"
	"drowsydc/internal/simtime"
)

// durableSpec is the small real run the recovery tests replay: 6 hosts
// for 3 days, 4 policy cells, a few tens of milliseconds of simulation.
const durableSpec = `{"family":"always-on-mix","hosts":6,"horizon_days":3}`

// durableHash computes the spec hash a server of the given version
// derives for durableSpec — tests pre-seed journals and spill files
// under exactly the names the daemon will look for.
func durableHash(t *testing.T, version string) string {
	t.Helper()
	spec, err := ParseJobSpec([]byte(durableSpec))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.BuildRun(Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return specHash(cacheKey("run", sc, spec.params(), version))
}

// seedDurable leaves dir as an interrupted daemon would have: durableSpec
// admitted under hash and never tombstoned, and the given spills, by
// cell, under hash's names.
func seedDurable(t *testing.T, dir, hash string, spills map[int][]byte) {
	t.Helper()
	j, _, err := checkpoint.OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(checkpoint.Entry{Key: hash, Kind: "run", Spec: []byte(durableSpec)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
		t.Fatal(err)
	}
	for cell, blob := range spills {
		path := filepath.Join(dir, "checkpoints", hash+"-c"+strconv.Itoa(cell)+".ckpt")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// captureSpills runs durableSpec with a daily checkpoint sink and
// returns each cell's latest checkpoint: the spills a daemon killed
// near the end of the job would have left.
func captureSpills(t *testing.T) map[int][]byte {
	t.Helper()
	latest := map[int][]byte{}
	var mu sync.Mutex // the sink fires from concurrently running cells
	_, err := scenario.RunFamily("always-on-mix",
		scenario.Params{Hosts: 6, HorizonHours: 3 * 24, ShardWorkers: 1},
		scenario.Options{Checkpoint: &scenario.CheckpointPlan{
			EveryHours: 24,
			Sink: func(cell int, policy string, hr simtime.Hour, data []byte) {
				mu.Lock()
				defer mu.Unlock()
				latest[cell] = data // later hours overwrite: keep the newest
			},
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(latest) == 0 {
		t.Fatal("capture run produced no checkpoints")
	}
	return latest
}

// spillFiles lists the .ckpt files under dir's checkpoints directory.
func spillFiles(dir string) []string {
	spills, _ := filepath.Glob(filepath.Join(dir, "checkpoints", "*.ckpt"))
	return spills
}

// waitReady polls /readyz until it reports 200 or the deadline expires.
func waitReady(t *testing.T, ts *httptest.Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		status, _ := get(t, ts, "/readyz")
		if status == http.StatusOK {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition never held: %s", what)
}

// TestReadyzStates pins the readiness state machine deterministically:
// replaying → 503 "replaying", ready → 200, draining → 503 "draining".
// Liveness stays 200 throughout.
func TestReadyzStates(t *testing.T) {
	s, ts := newTestServer(t)
	waitReady(t, ts)

	s.ready.Store(false)
	status, body := get(t, ts, "/readyz")
	if status != http.StatusServiceUnavailable || string(body) != "replaying\n" {
		t.Fatalf("replaying readyz = %d %q", status, body)
	}
	if status, body = get(t, ts, "/healthz"); status != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz during replay = %d %q", status, body)
	}
	s.ready.Store(true)
	if status, body = get(t, ts, "/readyz"); status != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("ready readyz = %d %q", status, body)
	}
	s.draining.Store(true)
	if status, body = get(t, ts, "/readyz"); status != http.StatusServiceUnavailable || string(body) != "draining\n" {
		t.Fatalf("draining readyz = %d %q", status, body)
	}
	if status, _ = get(t, ts, "/healthz"); status != http.StatusOK {
		t.Fatalf("healthz during drain = %d", status)
	}
}

// TestJournalRecovery is the kill-and-recover contract in unit form: a
// journal holding a pending job (as a crashed daemon would leave it,
// here with checkpoint spills for every cell) is replayed on startup
// behind the readiness gate, and the recovered response is
// byte-identical to the same request on a stateless daemon.
func TestJournalRecovery(t *testing.T) {
	// The straight-through truth, from a daemon with no durable state.
	_, plainTS := newTestServer(t)
	_, _, want := post(t, plainTS, "/v1/run", durableSpec)

	dir := t.TempDir()
	// Seed per-cell checkpoint spills from a real captured run, so the
	// replay exercises the resume path, not just re-execution.
	seedDurable(t, dir, durableHash(t, "test"), captureSpills(t))

	s := mustNew(t, Config{Version: "test", StateDir: dir, CheckpointEveryHours: 24})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	waitReady(t, ts)

	if got := s.Stats().ReplayedJobs; got != 1 {
		t.Fatalf("replayed %d jobs, want 1", got)
	}
	status, cache, got := post(t, ts, "/v1/run", durableSpec)
	if status != http.StatusOK || cache != "hit" {
		t.Fatalf("recovered request = %d cache=%s", status, cache)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("recovered response differs from the stateless daemon's")
	}

	// Recovery settles durably: the journal is tombstoned and the spills
	// are gone, so a further restart replays nothing. The result is
	// published before the tombstone fsync lands (latency over
	// durability), so poll rather than assert: spill removal is the last
	// step of journalComplete, and once the spills are gone the
	// tombstone is already down.
	waitFor(t, "journal tombstoned and spills removed", func() bool { return len(spillFiles(dir)) == 0 })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustNew(t, Config{Version: "test", StateDir: dir})
	t.Cleanup(func() { s2.Close() }) //nolint:errcheck
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	waitReady(t, ts2)
	if got := s2.Stats().ReplayedJobs; got != 0 {
		t.Fatalf("second start replayed %d jobs, want 0", got)
	}
}

// TestJournalRecoveryBadSpill: a spill that fails to decode is deleted
// and counted as a spill error, and its cell runs from hour zero — the
// recovered response is byte-identical to the stateless daemon's. Two
// inputs fail: bytes that are no checkpoint, and a real spill whose
// DrCP version field names another version. The cadence is longer than
// the run, so the replay writes no spill of its own and the one error
// is the bad spill's.
func TestJournalRecoveryBadSpill(t *testing.T) {
	_, plainTS := newTestServer(t)
	_, _, want := post(t, plainTS, "/v1/run", durableSpec)

	otherVersion := bytes.Clone(captureSpills(t)[0])
	binary.LittleEndian.PutUint32(otherVersion[4:], binary.LittleEndian.Uint32(otherVersion[4:])+1)
	for name, blob := range map[string][]byte{
		"not a checkpoint": []byte("not a checkpoint"),
		"other version":    otherVersion,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seedDurable(t, dir, durableHash(t, "test"), map[int][]byte{0: blob})

			s := mustNew(t, Config{Version: "test", StateDir: dir})
			t.Cleanup(func() { s.Close() }) //nolint:errcheck
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			waitReady(t, ts)

			if got := s.Stats().ReplayedJobs; got != 1 {
				t.Fatalf("replayed %d jobs, want 1", got)
			}
			status, cache, got := post(t, ts, "/v1/run", durableSpec)
			if status != http.StatusOK || cache != "hit" {
				t.Fatalf("recovered request = %d cache=%s", status, cache)
			}
			if !bytes.Equal(want, got) {
				t.Fatal("response after a bad spill differs from the stateless daemon's")
			}
			waitFor(t, "bad spill removed", func() bool { return len(spillFiles(dir)) == 0 })
			if got := s.Stats().SpillErrors; got != 1 {
				t.Fatalf("%d spill errors, want 1 (the bad spill)", got)
			}
		})
	}
}

// TestJournalRecoveryAcrossVersions: a daemon upgraded with a job in
// flight replays it under its own version's key, whose hash differs
// from the journaled one. The replay tombstones the journaled hash, so
// a second start opens the journal cleanly and replays nothing. The
// spills the old build left under its hash are deleted unread (reading
// them would count a spill error: they carry another DrCP version), and
// the replay's own spills are removed when it settles.
func TestJournalRecoveryAcrossVersions(t *testing.T) {
	_, plainTS := newTestServer(t)
	_, _, want := post(t, plainTS, "/v1/run", durableSpec)

	dir := t.TempDir()
	old := bytes.Clone(captureSpills(t)[0])
	binary.LittleEndian.PutUint32(old[4:], binary.LittleEndian.Uint32(old[4:])-1)
	seedDurable(t, dir, durableHash(t, "old"), map[int][]byte{0: old})

	for start := 1; start <= 2; start++ {
		s := mustNew(t, Config{Version: "new", StateDir: dir, CheckpointEveryHours: 24})
		ts := httptest.NewServer(s.Handler())
		waitReady(t, ts)
		if got, want := s.Stats().ReplayedJobs, uint64(2-start); got != want {
			t.Fatalf("start %d replayed %d jobs, want %d", start, got, want)
		}
		if start == 1 {
			status, cache, got := post(t, ts, "/v1/run", durableSpec)
			if status != http.StatusOK || cache != "hit" {
				t.Fatalf("recovered request = %d cache=%s", status, cache)
			}
			if !bytes.Equal(want, got) {
				t.Fatal("response recovered across versions differs from the stateless daemon's")
			}
			waitFor(t, "every spill removed", func() bool { return len(spillFiles(dir)) == 0 })
			if got := s.Stats().SpillErrors; got != 0 {
				t.Fatalf("%d spill errors, want 0: the old build's spill was read", got)
			}
		}
		ts.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalSurvivesRunningDaemon covers the journaling side of a live
// daemon: an admitted job appends a record, completion tombstones it,
// and reopening the journal shows a clean (empty, untorn) backlog.
func TestJournalSurvivesRunningDaemon(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, Config{Version: "test", StateDir: dir})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	waitReady(t, ts)
	if status, _, _ := post(t, ts, "/v1/run", durableSpec); status != http.StatusOK {
		t.Fatalf("run status %d", status)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	j, rp, err := checkpoint.OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close() //nolint:errcheck
	if len(rp.Pending) != 0 || rp.Torn {
		t.Fatalf("journal after clean completion: pending=%d torn=%v", len(rp.Pending), rp.Torn)
	}
}

// TestSpillMetrics: the spills of a spec longer than the checkpoint
// cadence move drowsyd_spill_bytes_total and drowsyd_spill_seconds,
// and a spec too short to reach the cadence moves neither.
func TestSpillMetrics(t *testing.T) {
	s := mustNew(t, Config{Version: "test", StateDir: t.TempDir(), CheckpointEveryHours: 48})
	t.Cleanup(func() { s.Close() }) //nolint:errcheck
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	waitReady(t, ts)
	spills := func() (uint64, uint64) {
		return scrapeCounter(t, ts, "drowsyd_spill_bytes_total"), scrapeCounter(t, ts, "drowsyd_spill_seconds_count")
	}

	if status, _, _ := post(t, ts, "/v1/run", `{"family":"always-on-mix","hosts":6,"horizon_days":1}`); status != http.StatusOK {
		t.Fatalf("short run status %d", status)
	}
	if b, n := spills(); b != 0 || n != 0 {
		t.Fatalf("a 24-hour run at a 48-hour cadence spilled %d bytes in %d spills", b, n)
	}
	if status, _, _ := post(t, ts, "/v1/run", durableSpec); status != http.StatusOK {
		t.Fatalf("run status %d", status)
	}
	if b, n := spills(); b == 0 || n == 0 {
		t.Fatalf("a 72-hour run at a 48-hour cadence spilled %d bytes in %d spills", b, n)
	}
}

// specFor derives a distinct run spec per hosts count.
func specFor(hosts int) string {
	return `{"family":"always-on-mix","hosts":` + strconv.Itoa(hosts) + `,"horizon_days":3}`
}

// TestShedQueueFull pins overload shedding: with a one-worker pool and
// a one-job queue, a third distinct spec is shed with 429 and a
// Retry-After header while one job runs and one waits. The shed spec is
// not cached as a failure — once there is room again it runs normally.
func TestShedQueueFull(t *testing.T) {
	s := mustNew(t, Config{Version: "test", Workers: 1, MaxQueue: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.runFamily = func(name string, p scenario.Params, opt scenario.Options) (*scenario.Report, error) {
		started <- struct{}{}
		<-release
		return &scenario.Report{Scenario: name, Hosts: p.Hosts}, nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	waitReady(t, ts)

	// Sequence deliberately: job A occupies the worker, then job B takes
	// the one queue slot, then job C must be shed. Posting A and B
	// concurrently could race A's queued→running transition and shed B.
	postAsync := func(hosts int) chan int {
		ch := make(chan int, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/run", "application/json",
				strings.NewReader(specFor(hosts)))
			if err != nil {
				ch <- -1
				return
			}
			resp.Body.Close()
			ch <- resp.StatusCode
		}()
		return ch
	}
	chA := postAsync(4)
	<-started // A is running
	chB := postAsync(5)
	waitFor(t, "job B queued", func() bool { return s.pool.queued.Load() == 1 })

	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(specFor(6)))
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job status = %d, want 429\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(body.String(), "queue full") {
		t.Fatalf("shed body: %s", body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if st := s.Stats(); st.ShedJobs != 1 {
		t.Fatalf("shed_jobs = %d, want 1", st.ShedJobs)
	}

	close(release)
	for _, ch := range []chan int{chA, chB} {
		if status := <-ch; status != http.StatusOK {
			t.Fatalf("admitted job status %d", status)
		}
	}
	if status, _, _ := post(t, ts, "/v1/run", specFor(6)); status != http.StatusOK {
		t.Fatalf("retry after shed status %d", status)
	}
}

// TestMemoryBudget pins memory-budget admission: a budget below any
// real job rejects runs and sweeps with 413 and an error naming both
// the estimate and the budget, before anything executes.
func TestMemoryBudget(t *testing.T) {
	s := mustNew(t, Config{Version: "test", MaxSimBytes: 1024})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	waitReady(t, ts)
	status, _, body := post(t, ts, "/v1/run", durableSpec)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget status = %d, want 413\n%s", status, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Error, "max-sim-bytes") || !strings.Contains(env.Error, "1024") {
		t.Fatalf("budget error not descriptive: %s", env.Error)
	}
	status, _, _ = post(t, ts, "/v1/sweep",
		`{"family":"always-on-mix","hosts":6,"horizon_days":3,"param":"grace","values":[30,60]}`)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget sweep status = %d, want 413", status)
	}
	if st := s.Stats(); st.Runs != 0 {
		t.Fatalf("rejected jobs still ran: %d", st.Runs)
	}
}

// TestPanicIsolationAndQuarantine: a panicking job yields a 500 (not a
// dead daemon), moves the panic counter, and after poisonStrikes
// attempts the spec is quarantined with 422 while other specs keep
// working.
func TestPanicIsolationAndQuarantine(t *testing.T) {
	s := mustNew(t, Config{Version: "test"})
	s.runFamily = func(name string, p scenario.Params, opt scenario.Options) (*scenario.Report, error) {
		if p.Hosts == 13 {
			panic("unlucky fleet")
		}
		return &scenario.Report{Scenario: name, Hosts: p.Hosts}, nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	waitReady(t, ts)
	poison := specFor(13)

	for i := 1; i <= poisonStrikes; i++ {
		status, _, body := post(t, ts, "/v1/run", poison)
		if status != http.StatusInternalServerError || !strings.Contains(string(body), "panicked") {
			t.Fatalf("panic attempt %d = %d %s", i, status, body)
		}
		if got := s.Stats().Panics; got != uint64(i) {
			t.Fatalf("panics after attempt %d = %d", i, got)
		}
	}
	status, _, body := post(t, ts, "/v1/run", poison)
	if status != http.StatusUnprocessableEntity || !strings.Contains(string(body), "quarantined") {
		t.Fatalf("struck-out spec = %d %s", status, body)
	}
	if st := s.Stats(); st.QuarantinedSpecs != 1 {
		t.Fatalf("quarantined_specs = %d, want 1", st.QuarantinedSpecs)
	}
	// The daemon is alive and other specs are unaffected.
	if status, _, _ := post(t, ts, "/v1/run", specFor(6)); status != http.StatusOK {
		t.Fatalf("healthy spec after quarantine = %d", status)
	}
}

// TestDrainCancelsJobs pins the two-phase drain: a job that only ends
// on context cancellation still lets Drain finish inside its deadline
// (phase two cancels the job context), and readiness reports draining.
func TestDrainCancelsJobs(t *testing.T) {
	s := mustNew(t, Config{Version: "test"})
	started := make(chan struct{})
	s.runFamily = func(name string, p scenario.Params, opt scenario.Options) (*scenario.Report, error) {
		close(started)
		<-opt.Context.Done()
		return nil, opt.Context.Err()
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	waitReady(t, ts)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(durableSpec))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("two-phase drain failed: %v", err)
	}
	if status, _ := get(t, ts, "/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", status)
	}
}
