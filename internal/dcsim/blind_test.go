package dcsim

import (
	"fmt"
	"reflect"
	"testing"

	"drowsydc/internal/checkpoint"
	"drowsydc/internal/cluster"
	"drowsydc/internal/drowsy"
	"drowsydc/internal/neat"
	"drowsydc/internal/oasis"
	"drowsydc/internal/simtime"
)

// blindCases are the idleness-blind policy columns of the paper's
// comparison: Neat with and without S3, and Oasis.
var blindCases = []struct {
	name    string
	policy  func() cluster.Policy
	suspend bool
}{
	{"neat-s3", func() cluster.Policy { return neat.New() }, true},
	{"neat", func() cluster.Policy { return neat.New() }, false},
	{"oasis", func() cluster.Policy { return oasis.New(oasis.Options{}) }, true},
}

// TestBlindPoliciesNeverReadModels is the cluster.IdlenessBlind
// tripwire: blind runs on a testbed whose VMs have no idleness model at
// all must return exactly what they return with models. A blind policy
// that starts reading models — or a runtime that feeds them without a
// reader — dereferences a nil model and fails here.
func TestBlindPoliciesNeverReadModels(t *testing.T) {
	for _, tc := range blindCases {
		for _, res := range []Resolution{ResolutionHourly, ResolutionEvent} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, res), func(t *testing.T) {
				cfg := Config{Hours: 7 * 24, EnableSuspend: tc.suspend, Resolution: res}
				want := NewRunner(cfg, testbed(), tc.policy()).Run()
				c := testbed()
				for _, v := range c.VMs() {
					v.Model = nil
				}
				got := NewRunner(cfg, c, tc.policy()).Run()
				if !reflect.DeepEqual(want, got) {
					t.Fatal("result without idleness models differs from the result with them")
				}
			})
		}
	}
}

// TestObservingRunsFeedEveryPlacedVM: a run observes every placed VM
// every hour exactly when something reads the models — a policy that is
// not idleness-blind, or the grace time — and never otherwise.
func TestObservingRunsFeedEveryPlacedVM(t *testing.T) {
	const hours = 3 * 24
	cases := []struct {
		name   string
		policy cluster.Policy
		grace  bool
		want   int64
	}{
		{"drowsy", drowsy.New(drowsy.Options{FullRelocation: true}), true, hours},
		{"drowsy-no-grace", drowsy.New(drowsy.Options{FullRelocation: true}), false, hours},
		{"neat-grace", neat.New(), true, hours},
		{"neat", neat.New(), false, 0},
		{"oasis", oasis.New(oasis.Options{}), false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testbed()
			NewRunner(Config{Hours: hours, EnableSuspend: true, UseGrace: tc.grace}, c, tc.policy).Run()
			for _, v := range c.VMs() {
				if got := v.Model.HoursObserved(); got != tc.want {
					t.Errorf("VM %s observed %d hours, want %d", v.Name, got, tc.want)
				}
			}
		})
	}
}

// TestBlindResumeBitIdentical: a blind cell checkpoints fresh models,
// and a run resumed from any of its checkpoints still reproduces the
// straight-through run.
func TestBlindResumeBitIdentical(t *testing.T) {
	for _, tc := range blindCases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*cluster.Cluster, Config) {
				c, cfg := checkpointFixture(24, false)
				cfg.EnableSuspend = tc.suspend
				cfg.UseGrace = false
				return c, cfg
			}
			blobs := map[simtime.Hour][]byte{}
			c, cfg := build()
			cfg.Checkpoint = func(hr simtime.Hour, data []byte) {
				blobs[hr] = append([]byte(nil), data...)
			}
			want := NewRunner(cfg, c, tc.policy()).Run()
			if len(blobs) != 3 {
				t.Fatalf("captured %d checkpoints, want 3", len(blobs))
			}
			for hr, blob := range blobs {
				st, err := checkpoint.Decode(blob)
				if err != nil {
					t.Fatalf("decode checkpoint at %d: %v", hr, err)
				}
				c2, cfg2 := build()
				r2, err := ResumeRunner(cfg2, c2, tc.policy(), st)
				if err != nil {
					t.Fatalf("resume at %d: %v", hr, err)
				}
				requireIdenticalResults(t, fmt.Sprintf("resume@%d", hr), want, r2.Run())
			}
		})
	}
}
