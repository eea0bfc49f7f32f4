package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"drowsydc/internal/scenario"
	"drowsydc/internal/server"
	"drowsydc/internal/simtime"
)

// mixScale sizes one request mix. Each round runs one mix against a
// fresh daemon, so every round sees the same cold-to-warm cache curve.
type mixScale struct {
	requests   int
	runSpecs   int
	sweepSpecs int
}

var (
	fullMix  = mixScale{requests: 2000, runSpecs: 150, sweepSpecs: 10}
	smokeMix = mixScale{requests: 200, runSpecs: 24, sweepSpecs: 4}
)

// Mix shape. Clients and pool workers are capped at the host's two
// CPUs; CheckpointEveryHours makes every spec longer than a week spill.
// The traffic itself (the Zipf exponent, the sweep share, the catalog
// grid and the requests per round) is an assumption, not derived from
// recorded drowsyd traffic: zipfS was picked so that a round's miss
// share lands near 5%, within math/rand/v2's s > 1 (see README.md).
const (
	mixClients    = 2
	mixPoolSize   = 2
	mixSpillHours = 7 * simtime.HoursPerDay
	zipfS         = 1.3
	sweepFrac     = 0.01
	// sampleEvery picks the catalog specs whose bodies are re-derived by
	// a direct scenario run after each round (one in sampleEvery).
	sampleEvery = 8
	// statsInterval is how often a round samples the daemon's queue
	// depth.
	statsInterval = 100 * time.Millisecond
)

// mixSpec is one catalog entry: a run or streamed sweep request body,
// plus what the benchmark needs to re-derive and account for it.
type mixSpec struct {
	id     string
	body   []byte
	sweep  bool
	family string
	params scenario.Params
	grid   scenario.Sweep
	// vmh is the simulated VM-hours a miss costs: cells × VMs × horizon.
	vmh float64
	// buildMs is the time BuildFamily and Validate took for it.
	buildMs float64
}

// graceGrid is the sweep catalog's 3-point grace axis.
var graceGrid = []float64{0, 60, 120}

// mixCatalog builds the spec catalog and the request sequence of round
// k. The catalog is a fixed stratified grid — every family, hosts 4–16,
// horizons 3–14 days — so each round's total work is alike; the seed
// decides which specs are hot (the Zipf rank order) and the sequence.
func mixCatalog(scale mixScale, seed uint64, k int) ([]*mixSpec, []*mixSpec, error) {
	fams := scenario.Families()
	specs := make([]*mixSpec, 0, scale.runSpecs+scale.sweepSpecs)
	for i := 0; i < scale.runSpecs; i++ {
		j := i / len(fams)
		specs = append(specs, &mixSpec{
			id:     "r" + strconv.Itoa(i),
			family: fams[i%len(fams)].Name,
			params: scenario.Params{Hosts: 4 + j*5%13, HorizonHours: (3 + j*7%12) * simtime.HoursPerDay},
		})
	}
	for i := 0; i < scale.sweepSpecs; i++ {
		specs = append(specs, &mixSpec{
			id:     "s" + strconv.Itoa(i),
			sweep:  true,
			family: fams[i*4%len(fams)].Name,
			params: scenario.Params{Hosts: 4 + i*3%5, HorizonHours: (3 + i*2%5) * simtime.HoursPerDay},
			grid:   scenario.Sweep{Param: "grace", Values: graceGrid},
		})
	}
	for _, s := range specs {
		if err := s.prepare(); err != nil {
			return nil, nil, err
		}
	}
	runs, sweeps := specs[:scale.runSpecs], specs[scale.runSpecs:]

	rng := rand.New(rand.NewPCG(roundSeed(seed, k), 0x6d6978))
	runRank, sweepRank := rng.Perm(len(runs)), rng.Perm(len(sweeps))
	runZipf := rand.NewZipf(rng, zipfS, 1, uint64(len(runs)-1))
	sweepZipf := rand.NewZipf(rng, zipfS, 1, uint64(len(sweeps)-1))
	seq := make([]*mixSpec, scale.requests)
	for i := range seq {
		if rng.Float64() < sweepFrac {
			seq[i] = sweeps[sweepRank[sweepZipf.Uint64()]]
		} else {
			seq[i] = runs[runRank[runZipf.Uint64()]]
		}
	}
	return specs, seq, nil
}

// prepare encodes the spec's request body and validates it the way the
// daemon will, recording its miss cost.
func (s *mixSpec) prepare() error {
	js := server.JobSpec{
		Family:      s.family,
		Hosts:       s.params.Hosts,
		HorizonDays: s.params.HorizonHours / simtime.HoursPerDay,
		Workers:     cellWorkers,
	}
	if s.sweep {
		vals, err := json.Marshal(s.grid.Values)
		if err != nil {
			return err
		}
		js.Param, js.Values, js.Stream = s.grid.Param, vals, true
	}
	body, err := json.Marshal(js)
	if err != nil {
		return err
	}
	s.body = body
	t0 := time.Now()
	sc, err := scenario.BuildFamily(s.family, s.params)
	if err == nil {
		sc.Sweep = s.grid
		err = sc.Validate()
	}
	s.buildMs = ms(time.Since(t0))
	if err != nil {
		return fmt.Errorf("drowsyd-mix catalog %s: %w", s.id, err)
	}
	s.vmh = float64(sc.CellCount()) * float64(sc.SimulatedVMs()) * float64(sc.HorizonHours)
	return nil
}

// path is the endpoint the spec is posted to.
func (s *mixSpec) path() string {
	if s.sweep {
		return "/v1/sweep"
	}
	return "/v1/run"
}

// directRun is a spec run through the scenario library, bypassing the
// daemon: the reference its response bodies must equal.
type directRun struct {
	report     []byte
	encode     time.Duration
	migrations int
}

func (s *mixSpec) direct(opt scenario.Options) (directRun, error) {
	var out directRun
	var rep interface{ WriteJSON(io.Writer) error }
	if s.sweep {
		sr, err := scenario.RunFamilySweep(s.family, s.params, s.grid, opt)
		if err != nil {
			return out, err
		}
		for i := range sr.Points {
			out.migrations += migrations(&sr.Points[i].Report)
		}
		rep = sr
	} else {
		r, err := scenario.RunFamily(s.family, s.params, opt)
		if err != nil {
			return out, err
		}
		out.migrations = migrations(r)
		rep = r
	}
	var buf bytes.Buffer
	t0 := time.Now()
	err := rep.WriteJSON(&buf)
	out.report, out.encode = buf.Bytes(), time.Since(t0)
	return out, err
}

// reqResult is one request's outcome, written by the client goroutine
// that sent it and read after the round.
type reqResult struct {
	latency time.Duration
	cache   string
	report  string // digest of the report part of the body
	err     error
}

// mixRound is one round's measurements.
type mixRound struct {
	setups    []float64 // s
	wall      time.Duration
	results   []reqResult
	stats     server.Stats
	queuedMax int64
	alloc     runtimeSample
}

// daemon is an in-process drowsyd on a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	dir    string
	base   string
	client *http.Client
}

// startDaemon starts drowsyd with a durable state dir on a loopback
// port and waits for /readyz. The client's transport holds at most
// mixClients connections.
func startDaemon() (*daemon, error) {
	dir, err := os.MkdirTemp("", "drowsybench-state-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Workers:              mixPoolSize,
		StateDir:             dir,
		CheckpointEveryHours: mixSpillHours,
		Version:              "drowsybench",
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		dir:    dir,
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     mixClients,
			MaxIdleConnsPerHost: mixClients,
			DisableCompression:  true,
		}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("drowsyd readiness: %w", err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return d, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener, drains the pool, closes the journal, waits
// for the serve goroutine and removes the state dir.
func (d *daemon) stop() error {
	ctx := context.Background()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// post sends one request and reads the whole response.
func (d *daemon) post(s *mixSpec) reqResult {
	t0 := time.Now()
	resp, err := d.client.Post(d.base+s.path(), "application/json", bytes.NewReader(s.body))
	if err != nil {
		return reqResult{latency: time.Since(t0), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res := reqResult{latency: time.Since(t0), cache: resp.Header.Get("X-Drowsyd-Cache"), err: err}
	if err != nil {
		return res
	}
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("%s %s: HTTP %d: %s", s.path(), s.id, resp.StatusCode, bytes.TrimSpace(body))
		return res
	}
	report, err := reportPart(body)
	if err != nil {
		res.err = fmt.Errorf("%s %s: %w", s.path(), s.id, err)
		return res
	}
	res.report = digest(report)
	return res
}

// reportPart strips a streamed response's progress lines: the report
// starts at the first line that is exactly "{".
func reportPart(body []byte) ([]byte, error) {
	rest := body
	for len(rest) > 0 && !bytes.HasPrefix(rest, []byte("{\n")) {
		line, tail, ok := bytes.Cut(rest, []byte("\n"))
		if !ok || !bytes.HasPrefix(line, []byte(`{"event":"progress"`)) {
			return nil, fmt.Errorf("unexpected line before the report: %.60q", line)
		}
		rest = tail
	}
	if len(rest) == 0 {
		return nil, fmt.Errorf("response carries no report")
	}
	return rest, nil
}

// setUpDaemon starts drowsyd setupReps times, timing each start, and
// keeps the last one running.
func setUpDaemon(mr *mixRound, tr *tracer, parent int64) (*daemon, error) {
	sp := tr.start(parent, "drowsyd.setup", "reps", strconv.Itoa(setupReps))
	defer sp.end()
	for i := 0; ; i++ {
		t0 := time.Now()
		d, err := startDaemon()
		if err != nil {
			return nil, err
		}
		mr.setups = append(mr.setups, time.Since(t0).Seconds())
		if i == setupReps-1 {
			return d, nil
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
}

// runMix runs one request mix against a fresh daemon with mixClients
// closed-loop clients, each sending its next request only after the
// previous response has been read in full.
func runMix(seq []*mixSpec, tr *tracer, parent int64) (mixRound, error) {
	var mr mixRound
	d, err := setUpDaemon(&mr, tr, parent)
	if err != nil {
		return mr, err
	}

	var sampler sync.WaitGroup
	stopStats := make(chan struct{})
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(statsInterval)
		defer t.Stop()
		for {
			mr.queuedMax = max(mr.queuedMax, d.srv.Stats().QueuedJobs)
			select {
			case <-stopStats:
				return
			case <-t.C:
			}
		}
	}()

	mr.results = make([]reqResult, len(seq))
	before := readRuntime()
	var next atomic.Int64
	var clients sync.WaitGroup
	start := time.Now()
	for c := 0; c < mixClients; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				sp := tr.start(parent, "http.request", "req", strconv.Itoa(i), "spec", seq[i].id)
				mr.results[i] = d.post(seq[i])
				sp.end("cache", mr.results[i].cache)
			}
		}()
	}
	clients.Wait()
	mr.wall = time.Since(start)
	after := readRuntime()
	mr.alloc = runtimeSample{after.allocBytes - before.allocBytes, after.gcCycles - before.gcCycles}
	close(stopStats)
	sampler.Wait()
	mr.stats = d.srv.Stats()
	return mr, d.stop()
}

// checkMix checks a round's responses: every request succeeded with a
// cache state, and every spec got exactly one miss and byte-identical
// reports. It returns each requested spec's report digest, the round
// digest over all of them, and the specs sampled for direct
// re-derivation.
func checkMix(r *recorder, seq []*mixSpec, mr mixRound) (map[*mixSpec]string, string, []*mixSpec) {
	reports := map[*mixSpec]string{}
	misses := map[*mixSpec]int{}
	for i, res := range mr.results {
		s := seq[i]
		err := res.err
		switch {
		case err != nil:
		case res.cache != "hit" && res.cache != "miss":
			err = fmt.Errorf("%s: X-Drowsyd-Cache %q", s.id, res.cache)
		case reports[s] != "" && reports[s] != res.report:
			err = fmt.Errorf("%s: report differs between repeats", s.id)
		}
		r.op(err)
		if err != nil {
			continue
		}
		reports[s] = res.report
		if res.cache == "miss" {
			misses[s]++
		}
	}
	ids := make([]*mixSpec, 0, len(reports))
	for s := range reports {
		ids = append(ids, s)
		if misses[s] != 1 {
			r.check(fmt.Errorf("%s: %d cache misses, want exactly 1", s.id, misses[s]))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].id < ids[j].id })
	var all bytes.Buffer
	var sample []*mixSpec
	for _, s := range ids {
		fmt.Fprintf(&all, "%s %s\n", s.id, reports[s])
		if n, _ := strconv.Atoi(s.id[1:]); n%sampleEvery == 0 {
			sample = append(sample, s)
		}
	}
	return reports, digest(all.Bytes()), sample
}

// sampleRuns are the sampled specs' direct runs of one round.
type sampleRuns struct {
	walls, encodes []float64 // ms
	migrations     int
	probes         probeSet
}

// directRuns re-derives the sampled specs with direct scenario runs
// (traced: with probes) and checks them against the daemon's reports.
func directRuns(r *recorder, sample []*mixSpec, want map[*mixSpec]string, traced bool, parent int64) *sampleRuns {
	sr := &sampleRuns{}
	for _, s := range sample {
		opt := runOptions()
		if traced {
			sr.probes.attach(&opt)
		}
		sp := r.tr.start(parent, "scenario.direct", "spec", s.id)
		t0 := time.Now()
		out, err := s.direct(opt)
		sr.walls = append(sr.walls, ms(time.Since(t0)))
		sr.encodes = append(sr.encodes, ms(out.encode))
		sr.migrations += out.migrations
		sp.end()
		switch {
		case err != nil:
			r.check(fmt.Errorf("%s: direct run: %w", s.id, err))
		case digest(out.report) != want[s]:
			r.check(fmt.Errorf("%s: daemon report differs from the direct scenario run", s.id))
		}
	}
	return sr
}

// mixSamples accumulates the untraced rounds' end-to-end samples and
// daemon counters.
type mixSamples struct {
	setups, walls, lat, missLat, hitLat []float64
	requests, missVMH                   float64
	queued, joins, hitRatio             []float64
	allocs, gcs, peaks                  []float64
}

func (m *mixSamples) add(seq []*mixSpec, mr mixRound) {
	m.setups = append(m.setups, mr.setups...)
	m.walls = append(m.walls, mr.wall.Seconds())
	for i, res := range mr.results {
		if res.err != nil {
			continue
		}
		l := ms(res.latency)
		m.lat = append(m.lat, l)
		m.requests++
		if res.cache == "miss" {
			m.missLat = append(m.missLat, l)
			m.missVMH += seq[i].vmh
		} else {
			m.hitLat = append(m.hitLat, l)
		}
	}
	st := mr.stats
	m.queued = append(m.queued, float64(mr.queuedMax))
	m.joins = append(m.joins, float64(st.Joins))
	m.hitRatio = append(m.hitRatio, float64(st.Hits)/float64(max(1, st.Hits+st.Misses)))
	m.allocs = append(m.allocs, float64(mr.alloc.allocBytes)/(1<<20))
	m.gcs = append(m.gcs, float64(mr.alloc.gcCycles))
}

// runDrowsyd is drowsyd-mix: the daemon under closed-loop load.
// Zipf-drawn hits take the cache read path; misses take the pool, the
// store cache, the simulation, the fsync'd journal and the checkpoint
// spills.
func runDrowsyd(cfg Config, r *recorder) error {
	scale := fullMix
	if cfg.Smoke {
		scale = smokeMix
	}
	var (
		m                               mixSamples
		lt                              layerTimes
		tracedWalls                     []float64
		builds, specUs, runMs, encodeMs []float64
	)
	heap := startHeapSampler()
	defer heap.close()
	win := newWindow(cfg)
	for k := 0; win.more(); k++ {
		t0 := time.Now()
		round := r.tr.start(r.root, "round", "k", strconv.Itoa(k))
		specs, seq, err := mixCatalog(scale, cfg.Seed, k)
		if err != nil {
			return err
		}
		// A traced round runs its mix twice, untraced and traced in
		// alternating order, so the overhead is a paired measurement.
		modes := []bool{false}
		if cfg.Traced {
			modes = []bool{k%2 == 1, k%2 == 0}
		}
		for _, traced := range modes {
			settle()
			heap.take()
			var tr *tracer
			if traced {
				tr = r.tr
			}
			mr, err := runMix(seq, tr, round.id)
			if err != nil {
				return err
			}
			peak := heap.take()
			want, roundDigest, sample := checkMix(r, seq, mr)
			r.check(checkPinned(cfg, k, roundDigest))
			if !traced {
				m.add(seq, mr)
				m.peaks = append(m.peaks, peak)
				if k == 0 {
					r.set("server.hit_n", float64(mr.stats.Hits), "count")
					r.set("server.miss_n", float64(mr.stats.Misses), "count")
					r.set("server.runs", float64(mr.stats.Runs), "count")
					r.set("server.store_promotions", float64(mr.stats.StorePromotions), "count")
				}
				if !cfg.Traced {
					directRuns(r, sample, want, false, round.id)
				}
				continue
			}
			tracedWalls = append(tracedWalls, mr.wall.Seconds())
			sr := directRuns(r, sample, want, true, round.id)
			runMs = append(runMs, sr.walls...)
			encodeMs = append(encodeMs, sr.encodes...)
			lt.add(sr.probes.total())
			if k == 0 {
				sr.probes.setCounts(r)
				r.set("policy.migrations", float64(sr.migrations), "count")
				vmh := 0.0
				for _, s := range sample {
					vmh += s.vmh
				}
				r.set("dcsim.vm_hours", vmh, "count")
				r.check(captureMix(r, sample, want))
			}
		}
		if cfg.Traced {
			var bodies [][]byte
			for _, s := range specs {
				builds = append(builds, s.buildMs)
				bodies = append(bodies, s.body)
			}
			specUs = append(specUs, specMicros(r.tr, round.id, bodies, 1))
		}
		round.end()
		win.done(time.Since(t0).Seconds())
	}
	r.rounds = win.rounds
	r.set("setup_s", median(m.setups), "s")
	r.set("ops_per_s", ratio(m.requests, sum(m.walls)), "1/s")
	r.set("vmh_per_s", ratio(m.missVMH, sum(m.walls)), "vmh/s")
	r.set("op_p50_ms", percentile(m.lat, 50), "ms")
	r.set("sim_p50_ms", percentile(m.missLat, 50), "ms")
	r.set("sim_p90_ms", percentile(m.missLat, 90), "ms")
	r.set("peak_live_heap_mb", median(m.peaks), "MB")
	r.set("server.hit_p50_ms", percentile(m.hitLat, 50), "ms")
	r.set("server.hit_p99_ms", percentile(m.hitLat, 99), "ms")
	r.set("server.hit_ratio", median(m.hitRatio), "frac")
	r.set("server.queued_max", median(m.queued), "count")
	r.set("server.joins", median(m.joins), "count")
	r.set("runtime.alloc_mb", median(m.allocs), "MB")
	r.set("runtime.gc_cycles", median(m.gcs), "count")
	if cfg.Traced {
		lt.set(r)
		r.set("scenario.build_ms", median(builds), "ms")
		r.set("scenario.encode_ms", median(encodeMs), "ms")
		r.set("scenario.run_ms", median(runMs), "ms")
		r.set("server.spec_us", median(specUs), "us")
		r.set("bench.trace_overhead_frac", overhead(tracedWalls, m.walls), "frac")
	}
	return nil
}

// captureMix runs the sampled run spec with the longest horizon once
// with checkpoint capture at the daemon's spill cadence (half the
// horizon when no spec is long enough to spill), checks its report
// against the daemon's, and times the codec on the blobs.
func captureMix(r *recorder, sample []*mixSpec, want map[*mixSpec]string) error {
	var pick *mixSpec
	for _, s := range sample {
		if !s.sweep && (pick == nil || s.params.HorizonHours > pick.params.HorizonHours) {
			pick = s
		}
	}
	if pick == nil {
		return fmt.Errorf("drowsyd-mix: no run spec sampled for checkpoint capture")
	}
	sc, err := scenario.BuildFamily(pick.family, pick.params)
	if err != nil {
		return err
	}
	every := mixSpillHours
	if sc.HorizonHours <= every {
		every = sc.HorizonHours / 2
	}
	blobs, report, err := captureRun(sc, runOptions(), every, r.tr, r.root)
	if err != nil {
		return err
	}
	if digest(report) != want[pick] {
		return fmt.Errorf("%s: report with checkpoint capture differs from the daemon's", pick.id)
	}
	return codecMetrics(r, blobs)
}
