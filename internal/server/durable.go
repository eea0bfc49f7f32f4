package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"drowsydc/internal/checkpoint"
	"drowsydc/internal/scenario"
	"drowsydc/internal/simtime"
)

// The crash-safety layer: a durable job journal plus checkpoint spill
// files under -state-dir, replay-on-restart behind a readiness gate,
// per-job panic isolation with poison-spec quarantine, and overload
// shedding (bounded admission queue, memory-budget admission). Without
// a state dir the daemon keeps its original in-memory-only behaviour —
// every durability hook nil-checks away.
//
// Durability protocol. Each admitted (cacheable) job appends one
// fsync'd record to <state-dir>/jobs.journal before its simulation
// starts and a tombstone when it settles (fulfilled or failed — errors
// are deterministic, so replaying a failed job would only fail again).
// While a job runs, its cells spill month-boundary checkpoints to
// <state-dir>/checkpoints/<spec>-c<cell>.ckpt via tmp+rename, so a
// crash loses at most the progress since the last boundary. On restart
// the journal replays: every still-pending spec re-enters the pool,
// resuming each cell from its spilled checkpoint when one exists.
// Because runs are deterministic and checkpoint resume is byte-exact,
// the recovered response is byte-identical to what the crashed process
// would have produced. /readyz stays 503 until replay settles.

// errShed marks a job rejected by the bounded admission queue; respond
// maps it to 429 + Retry-After instead of the generic 500.
var errShed = errors.New("server: job queue full; retry later")

// poisonStrikes is the quarantine threshold: a spec whose job panics
// this many times is refused (422) until the daemon restarts. Panics
// are deterministic here (the simulation is), but the strike counter
// tolerates flukes — a single panic costs one failed request, not a
// quarantined spec.
const poisonStrikes = 3

// durableState carries everything the crash-safety layer owns.
type durableState struct {
	dir     string
	journal *checkpoint.Journal
	pending []checkpoint.Entry
	// cadence is the spill cadence in simulated hours (0 = monthly).
	cadence int
}

// initDurable opens the journal and loads the pending backlog. Called
// from New before any handler can run; replay itself starts async via
// recoverPending.
func (s *Server) initDurable(stateDir string, cadence int) error {
	if err := os.MkdirAll(filepath.Join(stateDir, "checkpoints"), 0o755); err != nil {
		return fmt.Errorf("server: state dir: %v", err)
	}
	j, rp, err := checkpoint.OpenJournal(filepath.Join(stateDir, "jobs.journal"))
	if err != nil {
		return fmt.Errorf("server: opening job journal: %v", err)
	}
	s.durable = &durableState{dir: stateDir, journal: j, pending: rp.Pending, cadence: cadence}
	return nil
}

// journalAdmit records an admitted job durably. An append failure fails
// the admission (returning the error): a job the daemon cannot promise
// durability for must not run as if it had.
func (s *Server) journalAdmit(key, kind string, spec *JobSpec) error {
	if s.durable == nil {
		return nil
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("server: encoding job spec for journal: %v", err)
	}
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	return s.durable.journal.Admit(checkpoint.Entry{Key: specHash(key), Kind: kind, Spec: body})
}

// journalComplete tombstones a settled job, journaled under hash, and
// removes the spill files of key's spec. Failures are counted, not
// surfaced — the job's result is already published; the worst case of
// a lost tombstone is one redundant (bit-identical) replay after the
// next restart.
func (s *Server) journalComplete(hash, key string) {
	if s.durable == nil {
		return
	}
	s.journalMu.Lock()
	err := s.durable.journal.Complete(hash)
	s.journalMu.Unlock()
	if err != nil {
		s.spillErrors.Add(1)
	}
	s.durable.removeSpills(specHash(key))
}

// removeSpills deletes the spill files of the spec hashing to hash. The
// glob also sweeps .ckpt.tmp leftovers a crash mid-spill left.
func (d *durableState) removeSpills(hash string) {
	matches, _ := filepath.Glob(filepath.Join(d.dir, "checkpoints", hash+"-c*"))
	for _, m := range matches {
		os.Remove(m) //nolint:errcheck // best-effort cleanup; replay tolerates leftovers
	}
}

// spillPath is the checkpoint spill file of one cell of one spec.
func (d *durableState) spillPath(hash string, cell int) string {
	return filepath.Join(d.dir, "checkpoints", hash+"-c"+strconv.Itoa(cell)+".ckpt")
}

// planFor builds the per-job checkpoint plan: cells spill their latest
// checkpoint atomically (tmp+rename, so a crash mid-write can never
// leave a torn spill), counted in drowsyd_spill_bytes_total and timed
// in drowsyd_spill_seconds, and resume from a spilled blob when one
// decodes cleanly; the cell gets the decoded state, so each spill is
// decoded once. A spill that fails to decode is deleted and the cell
// runs from hour zero — at the server boundary a stale or damaged spill
// must degrade to recomputation, never block recovery (the scenario
// layer's strict no-silent-degrade contract still guards the states it
// is handed).
func (s *Server) planFor(key string) *scenario.CheckpointPlan {
	if s.durable == nil {
		return nil
	}
	d := s.durable
	hash := specHash(key)
	return &scenario.CheckpointPlan{
		EveryHours: d.cadence,
		Sink: func(cell int, policy string, hr simtime.Hour, data []byte) {
			start := time.Now()
			path := d.spillPath(hash, cell)
			tmp := path + ".tmp"
			if err := writeFileSync(tmp, data); err != nil {
				s.spillErrors.Add(1)
				return
			}
			if err := os.Rename(tmp, path); err != nil {
				s.spillErrors.Add(1)
				return
			}
			s.spillSeconds.Observe(time.Since(start).Seconds())
			s.spillBytes.Add(uint64(len(data)))
		},
		Resume: func(cell int, policy string) *checkpoint.RunState {
			data, err := os.ReadFile(d.spillPath(hash, cell))
			if err != nil {
				return nil // no spill: fresh cell
			}
			st, err := checkpoint.Decode(data)
			if err != nil {
				os.Remove(d.spillPath(hash, cell)) //nolint:errcheck
				s.spillErrors.Add(1)
				return nil
			}
			return st
		},
	}
}

// writeFileSync writes data and fsyncs before close — the rename in the
// spill path is only atomic if the content is on disk first.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recoverPending replays the journal backlog: each pending spec re-runs
// (resuming cells from spilled checkpoints via planFor) and the daemon
// reports ready only once every replayed job has settled. Specs that no
// longer parse or validate (a binary downgrade, a hand-edited journal)
// are tombstoned and skipped — recovery must converge, not crash-loop.
// A job another build journaled rebuilds under this build's key, whose
// hash names its spills, and settles by tombstoning the journaled hash;
// the spills under that hash hold checkpoints another build captured,
// so they are deleted unread. Replay bypasses the admission queue and
// the memory budget: these jobs were already admitted once, durably.
func (s *Server) recoverPending() {
	defer s.ready.Store(true)
	if s.durable == nil {
		return
	}
	type replayJob struct {
		key string
		e   *entry
	}
	var started []replayJob
	for _, ent := range s.durable.pending {
		key, run, err := s.rebuildJob(ent)
		if err != nil || specHash(key) != ent.Key {
			s.durable.removeSpills(ent.Key)
		}
		if err != nil {
			// Unreplayable: tombstone so the next restart is clean.
			s.journalMu.Lock()
			s.durable.journal.Complete(ent.Key) //nolint:errcheck // nothing else to do
			s.journalMu.Unlock()
			s.spillErrors.Add(1)
			continue
		}
		e, leader := s.cache.lookup(key, 1)
		if !leader {
			continue // duplicate journal keys collapse onto one job
		}
		s.replayed.Add(1)
		s.startJob(key, ent.Key, e, run)
		started = append(started, replayJob{key, e})
	}
	for _, rj := range started {
		<-rj.e.done
	}
}

// rebuildJob turns a journal entry back into a runnable job: the spec
// re-parses and re-validates exactly as if it had just arrived, and the
// returned closure is what startJob would have been given at admission.
func (s *Server) rebuildJob(ent checkpoint.Entry) (string, func(scenario.Options) (jsonReport, error), error) {
	spec, err := ParseJobSpec(ent.Spec)
	if err != nil {
		return "", nil, err
	}
	switch ent.Kind {
	case "run":
		sc, err := spec.BuildRun(s.limits)
		if err != nil {
			return "", nil, err
		}
		key := cacheKey("run", sc, spec.params(), s.version)
		return key, func(opt scenario.Options) (jsonReport, error) {
			return s.runFamily(spec.Family, spec.params(), opt)
		}, nil
	case "sweep":
		sc, err := spec.BuildSweep(s.limits)
		if err != nil {
			return "", nil, err
		}
		key := cacheKey("sweep", sc, spec.params(), s.version)
		return key, func(opt scenario.Options) (jsonReport, error) {
			return s.runSweep(spec.Family, spec.params(), sc.Sweep, opt)
		}, nil
	default:
		return "", nil, fmt.Errorf("server: unknown journal job kind %q", ent.Kind)
	}
}

// runShielded executes a job function behind the panic barrier: a panic
// anywhere in the job (the scenario layer converts cell panics itself;
// this catches everything else, e.g. a panicking test stub or report
// encoder) becomes an error, the panic counter moves, and the daemon
// stays up. Scenario-level PanicErrors count too — one metric for "a
// simulation blew up", wherever it blew.
func (s *Server) runShielded(run func() (jsonReport, error)) (rep jsonReport, err error, panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			rep, err, panicked = nil, fmt.Errorf("server: job panicked: %v", v), true
		}
	}()
	rep, err = run()
	var pe *scenario.PanicError
	if errors.As(err, &pe) {
		s.panics.Add(1)
		panicked = true
	}
	return rep, err, panicked
}

// strike records a panic against a spec; at poisonStrikes the spec is
// quarantined.
func (s *Server) strike(key string) {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	if s.strikes == nil {
		s.strikes = make(map[string]int)
	}
	s.strikes[key]++
}

// quarantined reports whether a spec has struck out.
func (s *Server) quarantined(key string) bool {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	return s.strikes[key] >= poisonStrikes
}

// quarantinedCount reports how many specs are currently quarantined.
func (s *Server) quarantinedCount() int {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	n := 0
	for _, c := range s.strikes {
		if c >= poisonStrikes {
			n++
		}
	}
	return n
}

// Memory-budget admission. The estimate is a deliberately coarse,
// monotone model of a job's working set — per-cell host/VM runtime
// structures plus the shared trace memo, which scales with fleet ×
// horizon. It exists to refuse the requests that would OOM the daemon
// (a maximal fleet at a year horizon across a wide sweep grid), not to
// meter kilobytes.
const (
	estHostBytes       = 2048 // host runtime + shard column slices
	estVMBytes         = 4096 // usage model + cluster/runtime bookkeeping
	estTraceBytesVMHr  = 8    // shared trace memo per VM-hour
	defaultMaxSimBytes = 4 << 30
)

func estimateSimBytes(sc scenario.Scenario) int64 {
	perCell := int64(sc.TotalHosts())*estHostBytes + int64(sc.TotalVMs())*estVMBytes
	shared := int64(sc.TotalVMs()) * int64(sc.HorizonHours) * estTraceBytesVMHr
	return int64(sc.CellCount())*perCell + shared
}

// checkBudget rejects a job whose estimated working set exceeds the
// configured budget, naming both numbers so the client can shrink the
// request.
func (s *Server) checkBudget(sc scenario.Scenario) error {
	est := estimateSimBytes(sc)
	if est > s.maxSimBytes {
		return fmt.Errorf("server: estimated simulation memory %d bytes exceeds the -max-sim-bytes budget %d"+
			" (%d cells × %d hosts/%d VMs × %d h); shrink hosts, horizon or the sweep grid",
			est, s.maxSimBytes, sc.CellCount(), sc.TotalHosts(), sc.TotalVMs(), sc.HorizonHours)
	}
	return nil
}

// retryAfterSeconds advises a shed client when to retry: two seconds of
// headway per queued job, floored at one — crude, but monotone in
// actual congestion and cheap to compute.
func (s *Server) retryAfterSeconds() int {
	q := int(s.pool.queued.Load())
	if q < 1 {
		return 1
	}
	return 2 * q
}

// handleReady is the readiness probe: 503 while the journal backlog is
// replaying and once draining starts, 200 in between. Liveness
// (/healthz) stays unconditionally 200 — a replaying daemon is alive,
// just not ready for traffic.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n")) //nolint:errcheck
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("replaying\n")) //nolint:errcheck
	default:
		w.Write([]byte("ok\n")) //nolint:errcheck
	}
}

// Drain is the two-phase graceful shutdown: readiness drops
// immediately, the first half of the deadline waits for jobs to finish
// naturally, and the second half cancels the job context so in-flight
// simulations stop cooperatively at their next hour boundary (their
// journal entries stay pending; the next start resumes them from their
// spilled checkpoints). Callers without a deadline get the old
// wait-only behaviour.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	if dl, ok := ctx.Deadline(); ok {
		natural, cancel := context.WithTimeout(ctx, time.Until(dl)/2)
		err := s.pool.Drain(natural)
		cancel()
		if err == nil {
			return nil
		}
		s.jobCancel()
	}
	return s.pool.Drain(ctx)
}
