package dcsim

import (
	"context"
	"fmt"
	"testing"

	"drowsydc/internal/checkpoint"
	"drowsydc/internal/cluster"
	"drowsydc/internal/drowsy"
	"drowsydc/internal/netsim"
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
// must be partition-portable, like the shard executor itself.
func TestResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name          string
		capWorkers    int
		resumeWorkers int
		churn, lossy  bool
		res           Resolution
	}{
		{name: "serial", capWorkers: 1, resumeWorkers: 1},
		{name: "sharded", capWorkers: 8, resumeWorkers: 8},
		{name: "cross-workers", capWorkers: 1, resumeWorkers: 8},
		{name: "churn", capWorkers: 8, resumeWorkers: 1, churn: true},
		{name: "lossy", capWorkers: 1, resumeWorkers: 1, lossy: true},
		{name: "event", capWorkers: 1, resumeWorkers: 1, res: ResolutionEvent},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
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
			want := NewRunner(cfg, c, drowsy.New(drowsy.Options{FullRelocation: true})).Run()
			if len(blobs) != 3 { // 168 hours at cadence 48 → hours 48, 96, 144
				t.Fatalf("captured %d checkpoints, want 3", len(blobs))
			}

			// Attaching the hook must not change the run itself.
			cPlain, cfgPlain := build(tc.capWorkers)
			plain := NewRunner(cfgPlain, cPlain, drowsy.New(drowsy.Options{FullRelocation: true})).Run()
			requireIdenticalResults(t, "hook attached", plain, want)

			for hr, blob := range blobs {
				st, err := checkpoint.Decode(blob)
				if err != nil {
					t.Fatalf("decode checkpoint at %d: %v", hr, err)
				}
				c2, cfg2 := build(tc.resumeWorkers)
				r2, err := ResumeRunner(cfg2, c2, drowsy.New(drowsy.Options{FullRelocation: true}), st)
				if err != nil {
					t.Fatalf("resume at %d: %v", hr, err)
				}
				got := r2.Run()
				requireIdenticalResults(t, fmt.Sprintf("resume@%d", hr), want, got)
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
