package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"drowsydc/internal/checkpoint"
	"drowsydc/internal/dcsim"
	"drowsydc/internal/scenario"
	"drowsydc/internal/server"
	"drowsydc/internal/simtime"
)

// Load limits: the host has two CPUs, so no layer runs more than two
// goroutines of simulation on the benchmark's behalf.
const (
	cellWorkers  = 2
	shardWorkers = 2
)

// simInput is one round's family and scale, before seed derivation.
type simInput struct {
	family string
	params scenario.Params
	// policies overrides the family's comparison columns (nil keeps
	// them).
	policies []scenario.PolicyConfig
}

// simWorkload is a workload whose rounds are single scenario runs of
// one family and scale, with inputs varied by the round seed.
type simWorkload struct {
	full, smoke simInput
	// ckptEvery is the traced run's checkpoint-capture cadence in
	// simulated hours (smoke runs use at most half the horizon).
	ckptEvery int
}

func (s simWorkload) input(smoke bool) simInput {
	if smoke {
		return s.smoke
	}
	return s.full
}

// simWorkloads are the simulator workloads by name. Each stresses a
// different dcsim phase (see README.md for the measured shares).
var simWorkloads = map[string]simWorkload{
	// Big-fleet hourly walk: the serial pre-phase (placement snapshots,
	// arrival rescans, Rebalance) dominates — the Amdahl term of
	// ShardWorkers.
	"fleet-hourly": {
		full: simInput{family: "diurnal-office",
			params:   scenario.Params{Hosts: 1024, HorizonHours: 7 * 24, ShardWorkers: shardWorkers},
			policies: productionDrowsy},
		smoke: simInput{family: "diurnal-office",
			params:   scenario.Params{Hosts: 32, HorizonHours: 2 * 24, ShardWorkers: shardWorkers},
			policies: productionDrowsy},
		ckptEvery: 24,
	},
	// Year-scale idleness models and the Oasis pair search: observe and
	// reduce carry over half the time, and the cells share trace stores.
	"hetero-year": {
		full:      simInput{family: "hetero-fleet-year", params: scenario.Params{Hosts: 112}},
		smoke:     simInput{family: "hetero-fleet-year", params: scenario.Params{Hosts: 14, HorizonHours: 30 * 24}},
		ckptEvery: 744,
	},
	// Sub-hourly event walk with timeline memos, suspend monitors and
	// lossy WoL retries: the host phase is ~90% of the time.
	"event-lossy": {
		full:      simInput{family: "lossy-wan", params: scenario.Params{Hosts: 64, HorizonHours: 14 * 24}},
		smoke:     simInput{family: "lossy-wan", params: scenario.Params{Hosts: 8, HorizonHours: 3 * 24}},
		ckptEvery: 168,
	},
}

// productionDrowsy is fleet-hourly's single column: Drowsy-DC in its
// production trigger mode with suspend and grace.
var productionDrowsy = []scenario.PolicyConfig{
	{Label: "drowsy", Policy: "drowsy", Suspend: true, Grace: true},
}

// splitmix64 is the SplitMix64 output function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roundSeed derives round k's input seed from the run seed.
func roundSeed(seed uint64, k int) uint64 { return splitmix64(splitmix64(seed) ^ uint64(k)) }

// perturb moves a freshly built scenario to round k of seed: the start
// shifts by whole weeks within a year and every workload-group and
// network seed is XORed with the round seed. Round (1, 0) is left
// untouched, so its report is the registered family's exactly.
func perturb(sc *scenario.Scenario, seed uint64, k int) {
	if seed == 1 && k == 0 {
		return
	}
	x := roundSeed(seed, k)
	const week = simtime.DaysPerWeek * simtime.HoursPerDay
	sc.Start += simtime.Hour(x % (simtime.DaysPerYear / simtime.DaysPerWeek) * week)
	for i := range sc.Groups {
		sc.Groups[i].Seed ^= x
	}
	if sc.Network != nil {
		n := *sc.Network
		n.Seed ^= x
		sc.Network = &n
	}
}

// runOptions are the execution options of every direct scenario run.
func runOptions() scenario.Options { return scenario.Options{Workers: cellWorkers} }

func (s simWorkload) build(seed uint64, k int, smoke bool) (scenario.Scenario, error) {
	in := s.input(smoke)
	sc, err := scenario.BuildFamily(in.family, in.params)
	if err != nil {
		return scenario.Scenario{}, err
	}
	if in.policies != nil {
		sc.Policies = in.policies
	}
	perturb(&sc, seed, k)
	return sc, sc.Validate()
}

// jobBody is the drowsyd request body naming the same family and scale
// as the round input, for timing the server's spec layer.
func (in simInput) jobBody() []byte {
	body, _ := json.Marshal(server.JobSpec{ // a struct of plain fields always encodes
		Family:       in.family,
		Hosts:        in.params.Hosts,
		HorizonDays:  in.params.HorizonHours / simtime.HoursPerDay,
		ShardWorkers: in.params.ShardWorkers,
	})
	return body
}

// simOp is one timed scenario run and its encoded report.
type simOp struct {
	wall, encode time.Duration
	report       []byte
	vmh          float64
	migrations   int
	probes       *probeSet
}

// runOp runs sc and encodes its report, under a span when traced.
func runOp(sc scenario.Scenario, opt scenario.Options, tr *tracer, parent int64, traced bool) (simOp, error) {
	var op simOp
	if traced {
		op.probes = &probeSet{}
		op.probes.attach(&opt)
	}
	sp := tr.start(parent, "scenario.Run", "traced", strconv.FormatBool(traced))
	t0 := time.Now()
	rep, err := scenario.Run(sc, opt)
	t1 := time.Now()
	if err != nil {
		sp.end("error", err.Error())
		return op, err
	}
	var buf bytes.Buffer
	esp := tr.start(sp.id, "Report.WriteJSON")
	if err := rep.WriteJSON(&buf); err != nil {
		return op, err
	}
	esp.end()
	op.wall, op.encode = time.Since(t0), time.Since(t1)
	sp.end()
	if traced {
		op.probes.spans(tr, sp.id)
	}
	op.report = buf.Bytes()
	op.vmh = float64(rep.VMs) * float64(rep.HorizonHours) * float64(len(rep.Policies))
	op.migrations = migrations(rep)
	return op, checkReport(rep, sc)
}

// checkReport checks a report against the scenario it came from: the
// shape must echo the input and every column's figures must be
// physically sensible.
func checkReport(rep *scenario.Report, sc scenario.Scenario) error {
	if rep.Scenario != sc.Name || rep.Hosts != sc.TotalHosts() || rep.VMs != sc.SimulatedVMs() ||
		rep.HorizonHours != sc.HorizonHours || len(rep.Policies) != sc.CellCount() {
		return fmt.Errorf("%s: report shape %s/%d hosts/%d VMs/%d h/%d columns does not match the input",
			sc.Name, rep.Scenario, rep.Hosts, rep.VMs, rep.HorizonHours, len(rep.Policies))
	}
	for _, p := range rep.Policies {
		if !(p.EnergyKWh > 0) || math.IsInf(p.EnergyKWh, 0) ||
			p.SuspendedFraction < 0 || p.SuspendedFraction > 1 || p.SLAFraction < 0 || p.SLAFraction > 1 {
			return fmt.Errorf("%s/%s: implausible column (energy %v kWh, suspended %v, SLA %v)",
				sc.Name, p.Policy, p.EnergyKWh, p.SuspendedFraction, p.SLAFraction)
		}
	}
	return nil
}

// migrations sums a report's migrations over its policy columns.
func migrations(rep *scenario.Report) int {
	n := 0
	for _, p := range rep.Policies {
		n += p.Migrations
	}
	return n
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkPinned compares round k's digest with the pinned seed-1
// digests, when the round is pinned.
func checkPinned(cfg Config, k int, got string) error {
	if cfg.Seed != 1 || cfg.Smoke {
		return nil
	}
	pins := pinnedDigests()[cfg.Workload]
	if k >= len(pins) || got == pins[k] {
		return nil
	}
	return fmt.Errorf("%s round %d: digest %.12s, pinned %.12s", cfg.Workload, k, got, pins[k])
}

// setUp builds round k's scenario setupReps times and returns it with
// the build times in seconds.
func (s simWorkload) setUp(cfg Config, k int) (scenario.Scenario, []float64, error) {
	var sc scenario.Scenario
	var times []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if sc, err = s.build(cfg.Seed, k, cfg.Smoke); err != nil {
			return sc, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return sc, times, nil
}

func (s simWorkload) run(cfg Config, r *recorder) error {
	if cfg.Traced {
		return s.runTraced(cfg, r)
	}
	var setups, walls, vmh, peaks []float64
	heap := startHeapSampler()
	defer heap.close()
	win := newWindow(cfg)
	for k := 0; win.more(); k++ {
		t0 := time.Now()
		settle()
		heap.take()
		sc, times, err := s.setUp(cfg, k)
		if err != nil {
			return err
		}
		setups = append(setups, times...)
		op, err := runOp(sc, runOptions(), nil, 0, false)
		if err == nil {
			err = checkPinned(cfg, k, digest(op.report))
		}
		r.op(err)
		peak := heap.take()
		if err == nil {
			// A failed operation counts in failed, not in the timings.
			peaks = append(peaks, peak)
			walls = append(walls, op.wall.Seconds())
			vmh = append(vmh, op.vmh)
		}
		win.done(time.Since(t0).Seconds())
	}
	r.rounds = win.rounds
	r.set("setup_s", median(setups), "s")
	r.set("ops_per_s", ratio(float64(len(walls)), sum(walls)), "1/s")
	r.set("vmh_per_s", ratio(sum(vmh), sum(walls)), "vmh/s")
	r.set("op_p50_ms", 1e3*percentile(walls, 50), "ms")
	r.set("sim_p50_ms", 1e3*percentile(walls, 50), "ms")
	r.set("sim_p90_ms", 1e3*percentile(walls, 90), "ms")
	r.set("peak_live_heap_mb", median(peaks), "MB")
	return nil
}

// runTraced is the per-layer pass: each round runs its input twice,
// untraced and traced in alternating order, so the tracing overhead is
// a paired measurement and probe-on == probe-off is checked on every
// input; then one run with checkpoint capture feeds the codec timers.
func (s simWorkload) runTraced(cfg Config, r *recorder) error {
	var lt layerTimes
	var plain, traced, builds, encodes, allocs, gcs []float64
	win := newWindow(cfg)
	for k := 0; win.more(); k++ {
		t0 := time.Now()
		round := r.tr.start(r.root, "round", "k", strconv.Itoa(k))
		bsp := r.tr.start(round.id, "scenario.BuildFamily", "reps", strconv.Itoa(setupReps))
		sc, times, err := s.setUp(cfg, k)
		if err != nil {
			return err
		}
		bsp.end()
		for _, t := range times {
			builds = append(builds, 1e3*t)
		}

		var ops [2]simOp
		var alloc runtimeSample
		failed := false
		for i := 0; i < 2; i++ {
			tracedOp := (i+k)%2 == 1
			settle()
			before := readRuntime()
			op, err := runOp(sc, runOptions(), r.tr, round.id, tracedOp)
			after := readRuntime()
			r.op(err)
			failed = failed || err != nil
			if tracedOp {
				ops[1] = op
				continue
			}
			alloc = runtimeSample{after.allocBytes - before.allocBytes, after.gcCycles - before.gcCycles}
			ops[0] = op
		}
		if failed {
			// A failed operation counts in failed, not in the timings.
			round.end()
			win.done(time.Since(t0).Seconds())
			continue
		}
		allocs = append(allocs, float64(alloc.allocBytes)/(1<<20))
		gcs = append(gcs, float64(alloc.gcCycles))
		encodes = append(encodes, ms(ops[0].encode))
		if !bytes.Equal(ops[0].report, ops[1].report) {
			r.check(fmt.Errorf("%s round %d: traced report differs from untraced report", cfg.Workload, k))
		}
		r.check(checkPinned(cfg, k, digest(ops[0].report)))
		plain = append(plain, ops[0].wall.Seconds())
		traced = append(traced, ops[1].wall.Seconds())
		lt.add(ops[1].probes.total())
		if k == 0 {
			// Counts of round 0 only: they repeat exactly for a seed.
			ops[1].probes.setCounts(r)
			r.set("dcsim.vm_hours", ops[0].vmh, "count")
			r.set("policy.migrations", float64(ops[0].migrations), "count")
			r.check(s.capture(cfg, r, sc, ops[0].report))
			r.set("server.spec_us", specMicros(r.tr, round.id, [][]byte{s.input(cfg.Smoke).jobBody()}, specReps), "us")
		}
		round.end()
		win.done(time.Since(t0).Seconds())
	}
	r.rounds = win.rounds
	lt.set(r)
	r.set("scenario.build_ms", median(builds), "ms")
	r.set("scenario.encode_ms", median(encodes), "ms")
	r.set("scenario.run_ms", 1e3*median(traced), "ms")
	r.set("runtime.alloc_mb", median(allocs), "MB")
	r.set("runtime.gc_cycles", median(gcs), "count")
	r.set("bench.trace_overhead_frac", overhead(traced, plain), "frac")
	// No daemon runs in a simulator workload.
	r.set("server.hit_ratio", 0, "frac")
	r.set("server.queued_max", 0, "count")
	r.set("server.joins", 0, "count")
	r.set("server.store_promotions", 0, "count")
	return nil
}

// capture runs sc once with a checkpoint sink, checks that the report
// is unchanged by it, and times checkpoint.Decode and checkpoint.Encode
// on every captured blob.
func (s simWorkload) capture(cfg Config, r *recorder, sc scenario.Scenario, want []byte) error {
	every := s.ckptEvery
	if cfg.Smoke {
		every = min(every, sc.HorizonHours/2)
	}
	blobs, report, err := captureRun(sc, runOptions(), every, r.tr, r.root)
	if err != nil {
		return err
	}
	if !bytes.Equal(report, want) {
		return fmt.Errorf("%s: report with checkpoint capture differs from the plain report", cfg.Workload)
	}
	return codecMetrics(r, blobs)
}

// captureRun runs sc with a checkpoint sink at the given cadence and
// returns the captured blobs and the encoded report.
func captureRun(sc scenario.Scenario, opt scenario.Options, every int, tr *tracer, parent int64) ([][]byte, []byte, error) {
	var mu sync.Mutex
	var blobs [][]byte
	opt.Checkpoint = &scenario.CheckpointPlan{
		EveryHours: every,
		Sink: func(cell int, policy string, hr simtime.Hour, data []byte) {
			mu.Lock()
			blobs = append(blobs, data)
			mu.Unlock()
		},
	}
	sp := tr.start(parent, "checkpoint.capture", "every_hours", strconv.Itoa(every))
	defer sp.end()
	rep, err := scenario.Run(sc, opt)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, nil, err
	}
	if len(blobs) == 0 {
		return nil, nil, fmt.Errorf("%s: no checkpoint captured at a %d h cadence", sc.Name, every)
	}
	return blobs, buf.Bytes(), nil
}

// codecMetrics times Decode and Encode on each blob (checking that the
// re-encoding is byte-identical) and sets the checkpoint layer metrics.
func codecMetrics(r *recorder, blobs [][]byte) error {
	var dec, enc, perVM []float64
	for _, b := range blobs {
		dsp := r.tr.start(r.root, "checkpoint.Decode", "bytes", strconv.Itoa(len(b)))
		t0 := time.Now()
		st, err := checkpoint.Decode(b)
		dec = append(dec, ms(time.Since(t0)))
		dsp.end()
		if err != nil {
			return fmt.Errorf("decoding a captured checkpoint: %w", err)
		}
		esp := r.tr.start(r.root, "checkpoint.Encode")
		t1 := time.Now()
		out := checkpoint.Encode(st)
		enc = append(enc, ms(time.Since(t1)))
		esp.end()
		if !bytes.Equal(out, b) {
			return fmt.Errorf("checkpoint re-encoding differs from the captured blob (%d vs %d bytes)", len(out), len(b))
		}
		perVM = append(perVM, float64(len(b))/float64(max(1, len(st.VMs))))
	}
	r.set("checkpoint.decode_ms", median(dec), "ms")
	r.set("checkpoint.encode_ms", median(enc), "ms")
	r.set("checkpoint.bytes_per_vm", median(perVM), "B")
	return nil
}

// specReps is how often a lone spec is timed through the server's spec
// layer; one pass takes microseconds, too short to time once.
const specReps = 64

// specMicros times the server's spec layer — ParseJobSpec, BuildRun or
// BuildSweep, and the canonical hashes the result-cache key is made of
// — over bodies (each reps times) and returns the median in µs.
func specMicros(tr *tracer, parent int64, bodies [][]byte, reps int) float64 {
	sp := tr.start(parent, "server.spec", "specs", strconv.Itoa(len(bodies)))
	defer sp.end()
	var us []float64
	for _, b := range bodies {
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if _, err := specKey(b); err != nil {
				continue // catalog bodies are validated at set-up
			}
			us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	return median(us)
}

// specKey decodes and validates a request body and derives the hashes
// drowsyd keys its result cache by. It approximates the daemon's key
// path rather than calling it: the server derives the key in unexported
// code (JobSpec.params, cacheKey), so this mirrors that derivation
// (ShardWorkers 0 counts as 1) minus the final join with the kind,
// family and code version. A change to the server's key derivation does
// not reach this copy.
func specKey(body []byte) (string, error) {
	spec, err := server.ParseJobSpec(body)
	if err != nil {
		return "", err
	}
	var sc scenario.Scenario
	if spec.Param != "" {
		sc, err = spec.BuildSweep(server.Limits{})
	} else {
		sc, err = spec.BuildRun(server.Limits{})
	}
	if err != nil {
		return "", err
	}
	sw := spec.ShardWorkers
	if sw == 0 {
		sw = 1
	}
	p := scenario.Params{Hosts: spec.Hosts, HorizonHours: spec.HorizonDays * simtime.HoursPerDay,
		Resolution: spec.Resolution, ShardWorkers: sw}
	return p.CanonicalHash() + sc.Tuning.CanonicalHash() + sc.Sweep.CanonicalHash() + sc.Network.CanonicalHash(), nil
}

// cellProbe sums one cell's flight-recorder samples.
type cellProbe struct {
	policy                           string
	phase                            [4]time.Duration
	eventHours, suspends             int64
	requests, slaViolations          int64
	scheduled, packet                uint64
	wakeAttempts, wakeRetries, pairs uint64
}

func (p *cellProbe) ObserveHour(s dcsim.HourSample) {
	p.phase[0] += time.Duration(s.PrePhaseNanos)
	p.phase[1] += time.Duration(s.HostPhaseNanos)
	p.phase[2] += time.Duration(s.ObservePhaseNanos)
	p.phase[3] += time.Duration(s.ReducePhaseNanos)
	p.eventHours += int64(s.EventHours)
	p.suspends += int64(s.Suspends)
	p.requests += s.Requests
	p.slaViolations += s.SLAViolations
	p.scheduled += s.ScheduledWakes
	p.packet += s.PacketWakes
	p.wakeAttempts += s.WakeAttempts
	p.wakeRetries += s.WakeRetries
	p.pairs += s.PairEvaluations
}

// probeSet mints one cellProbe per cell of a run.
type probeSet struct{ cells []*cellProbe }

// attach wires the probes and phase timings into opt. Probes are
// minted serially in cell order, so no lock is needed.
func (ps *probeSet) attach(opt *scenario.Options) {
	opt.ProbeTimings = true
	opt.Probe = func(cell int, policy string) dcsim.Probe {
		p := &cellProbe{policy: policy}
		ps.cells = append(ps.cells, p)
		return p
	}
}

// phaseNames are the dcsim executor phases in probe order.
var phaseNames = [4]string{"dcsim.pre", "dcsim.host", "dcsim.observe", "dcsim.reduce"}

// spans attaches each cell's phase totals under the run's span.
func (ps *probeSet) spans(tr *tracer, parent int64) {
	for i, c := range ps.cells {
		for ph, name := range phaseNames {
			tr.duration(parent, name, c.phase[ph], "cell", strconv.Itoa(i), "policy", c.policy)
		}
	}
}

// total sums the probes over cells.
func (ps *probeSet) total() cellProbe {
	var t cellProbe
	for _, c := range ps.cells {
		for i := range t.phase {
			t.phase[i] += c.phase[i]
		}
		t.eventHours += c.eventHours
		t.suspends += c.suspends
		t.requests += c.requests
		t.slaViolations += c.slaViolations
		t.scheduled += c.scheduled
		t.packet += c.packet
		t.wakeAttempts += c.wakeAttempts
		t.wakeRetries += c.wakeRetries
		t.pairs += c.pairs
	}
	return t
}

// setCounts sets the deterministic per-layer counts.
func (ps *probeSet) setCounts(r *recorder) {
	t := ps.total()
	r.set("dcsim.event_hours", float64(t.eventHours), "count")
	r.set("dcsim.requests", float64(t.requests), "count")
	r.set("dcsim.sla_violations", float64(t.slaViolations), "count")
	r.set("suspend.suspends", float64(t.suspends), "count")
	r.set("waking.scheduled_wakes", float64(t.scheduled), "count")
	r.set("waking.packet_wakes", float64(t.packet), "count")
	r.set("netsim.wake_attempts", float64(t.wakeAttempts), "count")
	r.set("netsim.wake_retries", float64(t.wakeRetries), "count")
	r.set("oasis.pair_evals", float64(t.pairs), "count")
}

// layerTimes collects per-round dcsim phase totals.
type layerTimes struct{ phase [4][]float64 }

func (lt *layerTimes) add(t cellProbe) {
	for i := range lt.phase {
		lt.phase[i] = append(lt.phase[i], t.phase[i].Seconds())
	}
}

// set reports the median per-round phase seconds and the serial share.
func (lt *layerTimes) set(r *recorder) {
	var med [4]float64
	for i, name := range phaseNames {
		med[i] = median(lt.phase[i])
		r.set(name+"_s", med[i], "s")
	}
	total := med[0] + med[1] + med[2] + med[3]
	r.set("dcsim.serial_frac", ratio(med[0]+med[3], total), "frac")
}
