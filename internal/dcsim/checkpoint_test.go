package dcsim

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"drowsydc/internal/checkpoint"
	"drowsydc/internal/cluster"
	"drowsydc/internal/core"
	"drowsydc/internal/drowsy"
	"drowsydc/internal/neat"
	"drowsydc/internal/netsim"
	"drowsydc/internal/oasis"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// checkpointFixture builds a deterministic fleet and configuration for
// resume tests. Calling it twice yields bit-identical runs, so the
// straight-through run and the re-materialized resume run start from
// the same world.
func checkpointFixture(hosts int, churn bool) (*cluster.Cluster, Config) {
	c := shardedFleet(hosts)
	cfg := Config{
		Hours:                7 * 24,
		EnableSuspend:        true,
		UseGrace:             true,
		ShardHostSpan:        5,
		CheckpointEveryHours: 48,
	}
	if churn {
		n1 := cluster.NewVM(1000, "n1", cluster.KindLLMI, 6, 2, trace.RealTrace(2))
		n2 := cluster.NewVM(1001, "n2", cluster.KindSLMU, 6, 2, trace.SLMU(48, 96, 0.9))
		cfg.Arrivals = []Arrival{{At: 30, VM: n1}, {At: 30, VM: n2}}
		cfg.Departures = []Departure{
			{At: 100, VM: c.VMs()[0]},
			{At: 100, VM: n2},
		}
	}
	return c, cfg
}

// TestResumeBitIdentical is the tentpole's hard gate: a run resumed
// from any month-boundary checkpoint produces results bit-identical to
// the straight-through run — across worker counts, mid-run churn, the
// lossy wake network and the sub-hourly event mode. Resume worker
// counts deliberately differ from capture counts: the checkpoint format
// must be partition-portable, like the shard executor itself. The churn
// cases also run Neat and Oasis, which migrate the VMs that depart at
// hour 100: their counts must survive a resume after the departure.
func TestResumeBitIdentical(t *testing.T) {
	drowsyFull := func() cluster.Policy { return drowsy.New(drowsy.Options{FullRelocation: true}) }
	cases := []struct {
		name          string
		capWorkers    int
		resumeWorkers int
		churn, lossy  bool
		res           Resolution
		policy        func() cluster.Policy
	}{
		{name: "serial", capWorkers: 1, resumeWorkers: 1},
		{name: "sharded", capWorkers: 8, resumeWorkers: 8},
		{name: "cross-workers", capWorkers: 1, resumeWorkers: 8},
		{name: "churn", capWorkers: 8, resumeWorkers: 1, churn: true},
		{name: "churn-neat", capWorkers: 8, resumeWorkers: 1, churn: true,
			policy: func() cluster.Policy { return neat.New() }},
		{name: "churn-oasis", capWorkers: 8, resumeWorkers: 1, churn: true,
			policy: func() cluster.Policy { return oasis.New(oasis.Options{}) }},
		{name: "lossy", capWorkers: 1, resumeWorkers: 1, lossy: true},
		{name: "event", capWorkers: 1, resumeWorkers: 1, res: ResolutionEvent},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol := tc.policy
			if pol == nil {
				pol = drowsyFull
			}
			build := func(workers int) (*cluster.Cluster, Config) {
				c, cfg := checkpointFixture(24, tc.churn)
				cfg.ShardWorkers = workers
				cfg.Resolution = tc.res
				if tc.lossy {
					cfg.Network = &netsim.Config{WakeLoss: 0.3, Seed: 0xd15c, RelaySubnets: []int{1}}
				}
				return c, cfg
			}
			blobs := map[simtime.Hour][]byte{}
			c, cfg := build(tc.capWorkers)
			cfg.Checkpoint = func(hr simtime.Hour, data []byte) {
				blobs[hr] = append([]byte(nil), data...)
			}
			want := NewRunner(cfg, c, pol()).Run()
			if len(blobs) != 3 { // 168 hours at cadence 48 → hours 48, 96, 144
				t.Fatalf("captured %d checkpoints, want 3", len(blobs))
			}

			// Attaching the hook must not change the run itself.
			cPlain, cfgPlain := build(tc.capWorkers)
			plain := NewRunner(cfgPlain, cPlain, pol()).Run()
			requireIdenticalResults(t, "hook attached", plain, want)

			for hr, blob := range blobs {
				st, err := checkpoint.Decode(blob)
				if err != nil {
					t.Fatalf("decode checkpoint at %d: %v", hr, err)
				}
				c2, cfg2 := build(tc.resumeWorkers)
				r2, err := ResumeRunner(cfg2, c2, pol(), st)
				if err != nil {
					t.Fatalf("resume at %d: %v", hr, err)
				}
				got := r2.Run()
				requireIdenticalResults(t, fmt.Sprintf("resume@%d", hr), want, got)
			}
		})
	}
}

// overloadFleet builds 12 hosts of 4 vCPUs and 2 slots holding 20
// two-vCPU mostly-used VMs placed round-robin: two such VMs load a host
// past THR's threshold in most hours, so most rounds relieve some host.
func overloadFleet() *cluster.Cluster {
	c := cluster.New()
	for i := 0; i < 12; i++ {
		c.AddHost(cluster.NewHost(i, fmt.Sprintf("H%d", i), 16, 4, 2))
	}
	for i := 0; i < 20; i++ {
		v := cluster.NewVM(i, fmt.Sprintf("u%d", i), cluster.KindLLMU, 4, 2, trace.LLMU(uint64(i)))
		c.AddVM(v)
		_ = c.Place(v, c.Hosts()[i%12])
	}
	return c
}

// TestResumeNextToOverload resumes a run from every hour boundary under
// the two policies whose rounds read THR: a resumed run's first round
// flags the hosts the recorder's replay of the hour before the boundary
// puts over the threshold, and the checkpoint carries no history to
// fall back on. Neat must see an overloaded host right after some
// resume, or the suite would not reach the replay.
func TestResumeNextToOverload(t *testing.T) {
	const hours = 72
	for _, tc := range []struct {
		name   string
		policy func() cluster.Policy
	}{
		{"neat", func() cluster.Policy { return neat.New() }},
		{"drowsy", func() cluster.Policy { return drowsy.New(drowsy.Options{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Hours: hours, EnableSuspend: true, CheckpointEveryHours: 1}
			blobs := map[simtime.Hour][]byte{}
			capture := cfg
			capture.Checkpoint = func(hr simtime.Hour, data []byte) {
				blobs[hr] = append([]byte(nil), data...)
			}
			want := NewRunner(capture, overloadFleet(), tc.policy()).Run()
			if len(blobs) != hours-1 {
				t.Fatalf("captured %d checkpoints, want %d", len(blobs), hours-1)
			}
			overloaded := 0
			for hr := simtime.Hour(1); hr < hours; hr++ {
				st, err := checkpoint.Decode(blobs[hr])
				if err != nil {
					t.Fatalf("decode checkpoint at %d: %v", hr, err)
				}
				c := overloadFleet()
				pol := tc.policy()
				r, err := ResumeRunner(cfg, c, pol, st)
				if err != nil {
					t.Fatalf("resume at %d: %v", hr, err)
				}
				if p, ok := pol.(*neat.Policy); ok {
					for _, h := range c.Hosts() {
						if p.Overloaded(h) {
							overloaded++
						}
					}
				}
				requireIdenticalResults(t, fmt.Sprintf("resume@%d", hr), want, r.Run())
			}
			if tc.name == "neat" {
				if overloaded == 0 {
					t.Fatal("no host is overloaded right after any resume: the fleet does not exercise the replay")
				}
				t.Logf("%d overloaded (host, boundary) pairs", overloaded)
			}
		})
	}
}

// TestResumeRoundTripsThroughCodec pins that the serialized form is the
// contract, not the in-memory struct: a checkpoint decoded, re-encoded
// and decoded again resumes identically.
func TestResumeRoundTripsThroughCodec(t *testing.T) {
	var blob []byte
	c, cfg := checkpointFixture(12, false)
	cfg.Checkpoint = func(hr simtime.Hour, data []byte) {
		if hr == 96 {
			blob = append([]byte(nil), data...)
		}
	}
	want := NewRunner(cfg, c, drowsy.New(drowsy.Options{FullRelocation: true})).Run()
	st, err := checkpoint.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := checkpoint.Decode(checkpoint.Encode(st))
	if err != nil {
		t.Fatal(err)
	}
	c2, cfg2 := checkpointFixture(12, false)
	r2, err := ResumeRunner(cfg2, c2, drowsy.New(drowsy.Options{FullRelocation: true}), st2)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, "re-encoded resume", want, r2.Run())
}

// TestResumeVersion2Spill pins resuming a spill from a build whose
// model codec wrote version 2: testdata/resume-v2.drcp is
// checkpointFixture(6, false) under production drowsy, captured at hour
// 96 by that build, which stored every SI_w cell. The resumed run's
// Result deep-equals the straight-through run's: the week rows that
// build stored and this one skips are read by no hour up to the
// horizon. Re-encoding the spill's models as version 3, with those rows
// cleared, gives exactly this build's capture at hour 96; a run resumed
// from that state captures at hour 144 exactly what the straight-through
// run does (capture → restore → capture).
func TestResumeVersion2Spill(t *testing.T) {
	const at = 96
	blob, err := os.ReadFile("testdata/resume-v2.drcp")
	if err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	pol := func() cluster.Policy { return drowsy.New(drowsy.Options{}) }
	want := map[simtime.Hour][]byte{}
	c, cfg := checkpointFixture(6, false)
	cfg.Checkpoint = func(hr simtime.Hour, data []byte) { want[hr] = data }
	straight := NewRunner(cfg, c, pol()).Run()

	resume := func(st *checkpoint.RunState) (*Result, map[simtime.Hour][]byte) {
		t.Helper()
		captures := map[simtime.Hour][]byte{}
		c2, cfg2 := checkpointFixture(6, false)
		cfg2.Checkpoint = func(hr simtime.Hour, data []byte) { captures[hr] = data }
		r2, err := ResumeRunner(cfg2, c2, pol(), st)
		if err != nil {
			t.Fatal(err)
		}
		return r2.Run(), captures
	}
	got, _ := resume(st)
	requireIdenticalResults(t, "resume@96", straight, got)
	if !reflect.DeepEqual(straight, got) {
		t.Fatal("resume@96: Result differs from the straight-through run")
	}

	// The storage rule keeps a week row only if the run writes it at an
	// hour h with h + 168 ≤ horizon; the rows none of whose writes
	// before the capture meet that are cleared.
	horizon := cfg.StartHour + simtime.Hour(cfg.Hours-1+readAheadHours)
	var kept [simtime.DaysPerWeek]bool
	for h := cfg.StartHour; h < at; h++ {
		if h+simtime.DaysPerWeek*simtime.HoursPerDay <= horizon {
			kept[simtime.Decompose(h).DayOfWeek] = true
		}
	}
	cleared, err := checkpoint.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cleared.VMs {
		vs := &cleared.VMs[i]
		if v := binary.LittleEndian.Uint32(vs.Model[4:]); v != 2 {
			t.Fatalf("VM %d model is version %d, want 2", vs.ID, v)
		}
		var m core.Model
		if err := m.UnmarshalBinary(vs.Model); err != nil {
			t.Fatal(err)
		}
		for d := range m.SIw {
			if !kept[d] {
				m.SIw[d] = nil
			}
		}
		if vs.Model, err = m.AppendBinary(nil); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(checkpoint.Encode(cleared), want[at]) {
		t.Fatal("the version-2 spill with its models re-encoded and unread week rows cleared differs from the hour-96 capture")
	}
	gotCleared, captures := resume(cleared)
	if !reflect.DeepEqual(straight, gotCleared) {
		t.Fatal("resume@96 from the cleared spill: Result differs from the straight-through run")
	}
	if len(captures) != 1 || !bytes.Equal(captures[144], want[144]) {
		t.Fatal("the capture at hour 144 of a run resumed from the cleared spill differs from the straight-through one")
	}
}

// TestResumeRejections: a checkpoint must only restore into the exact
// run shape it was captured from, and misconfigured resumes fail fast
// with descriptive errors instead of diverging silently.
func TestResumeRejections(t *testing.T) {
	var blob []byte
	c, cfg := checkpointFixture(12, false)
	cfg.Checkpoint = func(hr simtime.Hour, data []byte) {
		if blob == nil {
			blob = append([]byte(nil), data...)
		}
	}
	NewRunner(cfg, c, drowsy.New(drowsy.Options{FullRelocation: true})).Run()
	st, err := checkpoint.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	pol := func() cluster.Policy { return drowsy.New(drowsy.Options{FullRelocation: true}) }
	fresh := func() (*cluster.Cluster, Config) { return checkpointFixture(12, false) }

	t.Run("probe attached", func(t *testing.T) {
		c2, cfg2 := fresh()
		cfg2.Probe = probeFunc(func(HourSample) {})
		if _, err := ResumeRunner(cfg2, c2, pol(), st); err == nil {
			t.Fatal("probe-attached resume accepted")
		}
	})
	t.Run("wrong horizon", func(t *testing.T) {
		c2, cfg2 := fresh()
		cfg2.Hours = 6 * 24
		if _, err := ResumeRunner(cfg2, c2, pol(), st); err == nil {
			t.Fatal("horizon-mismatched resume accepted")
		}
	})
	t.Run("wrong policy", func(t *testing.T) {
		c2, cfg2 := fresh()
		other := *st
		other.Policy = "neat"
		if _, err := ResumeRunner(cfg2, c2, pol(), &other); err == nil {
			t.Fatal("policy-mismatched resume accepted")
		}
	})
	t.Run("wrong fleet", func(t *testing.T) {
		c2 := shardedFleet(10)
		_, cfg2 := fresh()
		if _, err := ResumeRunner(cfg2, c2, pol(), st); err == nil {
			t.Fatal("fleet-mismatched resume accepted")
		}
	})
	t.Run("network mismatch", func(t *testing.T) {
		c2, cfg2 := fresh()
		cfg2.Network = &netsim.Config{WakeLoss: 0.3, Seed: 1}
		if _, err := ResumeRunner(cfg2, c2, pol(), st); err == nil {
			t.Fatal("network-mismatched resume accepted")
		}
	})
	t.Run("departed mismatch", func(t *testing.T) {
		// The fixture has no departures: a listed one matches nothing.
		c2, cfg2 := fresh()
		other := *st
		other.Departed = []checkpoint.DepartedVM{{ID: 0, Migrations: 3}}
		if _, err := ResumeRunner(cfg2, c2, pol(), &other); err == nil {
			t.Fatal("departed VM the schedule never removed accepted")
		}
		// With churn, the list must name the replayed departures in order.
		var late []byte
		c3, cfg3 := checkpointFixture(12, true)
		cfg3.Checkpoint = func(hr simtime.Hour, data []byte) {
			if hr == 144 {
				late = append([]byte(nil), data...)
			}
		}
		NewRunner(cfg3, c3, pol()).Run()
		st3, err := checkpoint.Decode(late)
		if err != nil {
			t.Fatal(err)
		}
		if len(st3.Departed) != 2 {
			t.Fatalf("checkpoint at 144 lists %d departed VMs, want 2", len(st3.Departed))
		}
		for name, departed := range map[string][]checkpoint.DepartedVM{
			"missing": nil,
			"swapped": {st3.Departed[1], st3.Departed[0]},
		} {
			c4, cfg4 := checkpointFixture(12, true)
			other := *st3
			other.Departed = departed
			if _, err := ResumeRunner(cfg4, c4, pol(), &other); err == nil {
				t.Fatalf("%s departed list accepted", name)
			}
		}
	})
	t.Run("policy state", func(t *testing.T) {
		// No policy restores a state blob: resume refuses one under
		// every policy instead of dropping it.
		for _, p := range []cluster.Policy{
			drowsy.New(drowsy.Options{}), pol(), neat.New(), oasis.New(oasis.Options{}),
		} {
			c2, cfg2 := fresh()
			other := *st
			other.Policy = p.Name()
			other.PolicyState = []byte{1, 2, 3, 4}
			if _, err := ResumeRunner(cfg2, c2, p, &other); err == nil || !strings.Contains(err.Error(), "policy state") {
				t.Fatalf("%s: resume of a checkpoint with policy state: %v", p.Name(), err)
			}
		}
	})
	t.Run("hour outside run", func(t *testing.T) {
		c2, cfg2 := fresh()
		other := *st
		other.Hour = other.StartHour
		if _, err := ResumeRunner(cfg2, c2, pol(), &other); err == nil {
			t.Fatal("start-hour checkpoint accepted")
		}
	})
}

// TestRunCancellation: a cancelled context stops the run at the next
// hour boundary with a nil result, and an uncancelled context changes
// nothing.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c, cfg := checkpointFixture(12, false)
	cfg.Context = ctx
	hours := 0
	cfg.CheckpointEveryHours = 1
	cfg.Checkpoint = func(hr simtime.Hour, data []byte) {
		hours++
		if hours == 5 {
			cancel()
		}
	}
	if res := NewRunner(cfg, c, drowsy.New(drowsy.Options{FullRelocation: true})).Run(); res != nil {
		t.Fatal("cancelled run returned a result")
	}
	if hours != 5 {
		t.Fatalf("run played %d checkpointed hours after cancellation, want 5", hours)
	}

	c2, cfg2 := checkpointFixture(12, false)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cfg2.Context = ctx2
	live := NewRunner(cfg2, c2, drowsy.New(drowsy.Options{FullRelocation: true})).Run()
	c3, cfg3 := checkpointFixture(12, false)
	plain := NewRunner(cfg3, c3, drowsy.New(drowsy.Options{FullRelocation: true})).Run()
	requireIdenticalResults(t, "context attached", plain, live)
}

// probeFunc adapts a function to the Probe interface for tests.
type probeFunc func(HourSample)

func (f probeFunc) ObserveHour(s HourSample) { f(s) }
