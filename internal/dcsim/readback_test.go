package dcsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"drowsydc/internal/checkpoint"
	"drowsydc/internal/cluster"
	"drowsydc/internal/core"
	"drowsydc/internal/drowsy"
	"drowsydc/internal/simtime"
)

// TestReadAheadCoversProfile pins the observation phase's read horizon
// to the farthest read a round makes: drowsy-full's profile over the
// round's hour and the next drowsy.ProfileHours − 1.
func TestReadAheadCoversProfile(t *testing.T) {
	if readAheadHours != drowsy.ProfileHours-1 {
		t.Fatalf("readAheadHours = %d, drowsy-full profiles reach %d hours ahead",
			readAheadHours, drowsy.ProfileHours-1)
	}
}

// readRecorder wraps drowsy-full and hashes, per hour, the IP reads
// the storage rule must keep exact: every VM's 24-hour profile before
// each round, and every VM's IP at the hour just observed in
// RecordHour, which runs after the observation phase.
type readRecorder struct {
	*drowsy.Policy
	sums []uint64
}

func newReadRecorder() *readRecorder {
	return &readRecorder{Policy: drowsy.New(drowsy.Options{FullRelocation: true})}
}

func (p *readRecorder) record(ips []float64) {
	h := fnv.New64a()
	var b [8]byte
	for _, ip := range ips {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(ip))
		h.Write(b[:])
	}
	p.sums = append(p.sums, h.Sum64())
}

func (p *readRecorder) Rebalance(c *cluster.Cluster, hr simtime.Hour) {
	var stamps [drowsy.ProfileHours]simtime.Stamp
	for k := range stamps {
		stamps[k] = simtime.Decompose(hr + simtime.Hour(k))
	}
	ips := make([]float64, drowsy.ProfileHours*len(c.VMs()))
	for i, v := range c.VMs() {
		v.Model.IPProfileInto(stamps[:], ips[i*drowsy.ProfileHours:(i+1)*drowsy.ProfileHours])
	}
	p.record(ips)
	p.Policy.Rebalance(c, hr)
}

func (p *readRecorder) RecordHour(c *cluster.Cluster, hr simtime.Hour, util []float64) {
	ips := make([]float64, 0, len(c.VMs()))
	for _, v := range c.VMs() {
		ips = append(ips, v.IP(hr))
	}
	p.record(ips)
	p.Policy.RecordHour(c, hr, util)
}

// readBackRun runs drowsy-full over a 6-host fleet with timer-driven
// backup VMs (whose scheduled wakes fire at the hour boundaries) in
// two shards, recording its reads.
func readBackRun(start simtime.Hour, hours int) []uint64 {
	c := shardedFleet(6)
	for _, v := range c.VMs() {
		v.TimerDriven = v.ID%4 == 1 // the DailyBackup VMs
	}
	p := newReadRecorder()
	NewRunner(Config{
		StartHour:     start,
		Hours:         hours,
		EnableSuspend: true,
		UseGrace:      true,
		ShardWorkers:  2,
		ShardHostSpan: 3,
	}, c, p).Run()
	return p.sums
}

// TestReadBackMatchesKeepAll is the runtime's tripwire for the storage
// rule: a run's reads must equal those of the same run extended by a
// year, which keeps every cell the shorter run skips. Each case's last
// round reads exactly at its horizon, a cell first written one read-back
// gap before it:
//   - year and month end on Feb 28 01:00, so the last round reads
//     Mar 1 00:00. The year-long case's last read hits a SI_y cell
//     written exactly one year before the horizon; the 650-hour case
//     keeps its SI_m table by exactly one hour;
//   - week runs from Monday 00:00 (hour 0) to hour 169, so the last
//     round reads hour 192, Tuesday 00:00, a cell of the Tuesday row
//     first written at hour 24.
//
// A bound one hour tighter on any scale, or an observe that clears the
// memo instead of handing it the skipped hour's IP, fails here.
func TestReadBackMatchesKeepAll(t *testing.T) {
	feb28 := simtime.Date(2, 1, 27, 1)
	for _, tc := range []struct {
		name       string
		start, end simtime.Hour
	}{
		{"year", simtime.Date(1, 0, 0, 0), feb28},
		{"month", simtime.Date(2, 1, 0, 0), feb28},
		{"week", 0, 169},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hours := int(tc.end-tc.start) + 1
			got := readBackRun(tc.start, hours)
			want := readBackRun(tc.start, hours+simtime.HoursPerYear)
			if len(got) != 2*hours || len(want) < len(got) {
				t.Fatalf("recorded %d and %d reads, want %d and more", len(got), len(want), 2*hours)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("read %d of %d (hour %d) differs from the keep-everything run",
						i, len(got), tc.start+simtime.Hour(i/2))
				}
			}
		})
	}
}

// TestResumeInsideKeptWindow resumes a run longer than a year from
// every month-boundary checkpoint. The hour-744 capture lies inside
// the SI_y kept window (hours ≤ last − 8,737), so it must carry the
// January rows the run's last month reads back; the other eleven lie
// past it. Every resumed Result equals the straight-through one.
func TestResumeInsideKeptWindow(t *testing.T) {
	pol := func() cluster.Policy { return drowsy.New(drowsy.Options{FullRelocation: true}) }
	build := func(workers int) (*cluster.Cluster, Config) {
		c, cfg := checkpointFixture(12, false)
		cfg.Hours = simtime.HoursPerYear + 744
		cfg.CheckpointEveryHours = 744
		cfg.ShardWorkers = workers
		return c, cfg
	}
	blobs := map[simtime.Hour][]byte{}
	c, cfg := build(1)
	cfg.Checkpoint = func(hr simtime.Hour, data []byte) { blobs[hr] = append([]byte(nil), data...) }
	want := NewRunner(cfg, c, pol()).Run()
	if len(blobs) != 12 {
		t.Fatalf("captured %d checkpoints, want 12", len(blobs))
	}
	for hr, blob := range blobs {
		st, err := checkpoint.Decode(blob)
		if err != nil {
			t.Fatalf("decode checkpoint at %d: %v", hr, err)
		}
		if hr == 744 {
			var m core.Model
			if err := m.UnmarshalBinary(st.VMs[0].Model); err != nil {
				t.Fatal(err)
			}
			if m.SIy[0] == nil {
				t.Fatal("the hour-744 capture holds no January row; the kept window is untested")
			}
		}
		c2, cfg2 := build(4)
		r2, err := ResumeRunner(cfg2, c2, pol(), st)
		if err != nil {
			t.Fatalf("resume at %d: %v", hr, err)
		}
		got := r2.Run()
		requireIdenticalResults(t, fmt.Sprintf("resume@%d", hr), want, got)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("resume@%d: Result differs from the straight-through run", hr)
		}
	}
}
