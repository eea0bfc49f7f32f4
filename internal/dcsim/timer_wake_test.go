package dcsim

import (
	"testing"

	"drowsydc/internal/checkpoint"
	"drowsydc/internal/cluster"
	"drowsydc/internal/neat"
	"drowsydc/internal/simtime"
	"drowsydc/internal/timeline"
	"drowsydc/internal/trace"
)

// Timeline-aware scheduled wakes: at event resolution an hr-timer must
// be registered at the timer-driven VM's first within-hour burst, not
// the hour boundary — a boundary registration wakes the host up to an
// hour before any work exists. The hourly mode keeps boundary
// registrations bit-identically.

// timerVMID picks a VM ID whose default timeline seed expands the
// backup hour into a burst starting strictly after the hour boundary —
// otherwise the clamp would be invisible and the test vacuous.
func timerVMID(t *testing.T, hr simtime.Hour, level float64) int {
	t.Helper()
	for id := 0; id < 64; id++ {
		seed := timeline.MixSeed(0xd40b5eed, uint64(id))
		if exp := timeline.Expand(seed, hr, level); len(exp.Bursts()) > 0 && exp.Bursts()[0].Start > 0 {
			return id
		}
	}
	t.Fatal("no VM ID yields a mid-hour first burst; cannot exercise the clamp")
	return 0
}

func backupCluster(id int) (*cluster.Cluster, *cluster.VM) {
	c := cluster.New()
	c.AddHost(cluster.NewHost(0, "P2", 16, 4, 2))
	v := cluster.NewVM(id, "backup", cluster.KindLLMI, 6, 2, trace.DailyBackup(0.6))
	v.TimerDriven = true
	c.AddVM(v)
	_ = c.Place(v, c.Hosts()[0])
	return c, v
}

func TestEventTimerRegisteredAtFirstBurst(t *testing.T) {
	// Start after the day-0 backup hour so the only registration target
	// within the run is hour 26 (02:00 of day 1).
	const wakeHour = simtime.Hour(26)
	id := timerVMID(t, wakeHour, 0.6)

	// Event resolution: the hr-timer lands on the first burst.
	c, v := backupCluster(id)
	r := NewRunner(Config{StartHour: 3, Hours: 20, EnableSuspend: true, UseGrace: true,
		Resolution: ResolutionEvent}, c, neat.New())
	_ = r.Run()
	burstStart := v.Bursts(wakeHour)[0].Start
	if burstStart == 0 {
		t.Fatal("picked VM's first burst starts at the boundary; vacuous")
	}
	want := wakeHour.Start().Add(simtime.Duration(burstStart))
	if got := r.vms[v.Slot()].timerAt; got != want {
		t.Fatalf("event-mode hr-timer at t=%d, want first burst t=%d (hour start t=%d)",
			got, want, wakeHour.Start())
	}

	// Hourly resolution: the boundary registration is unchanged.
	c2, v2 := backupCluster(id)
	r2 := NewRunner(Config{StartHour: 3, Hours: 20, EnableSuspend: true, UseGrace: true},
		c2, neat.New())
	_ = r2.Run()
	if got := r2.vms[v2.Slot()].timerAt; got != wakeHour.Start() {
		t.Fatalf("hourly hr-timer at t=%d, want hour start t=%d", got, wakeHour.Start())
	}
}

func TestEventTimerWakeFiresAheadOfBurst(t *testing.T) {
	id := timerVMID(t, 26, 0.6)
	run := func(res Resolution) *Result {
		c, _ := backupCluster(id)
		return NewRunner(Config{StartHour: 3, Hours: 30, EnableSuspend: true, UseGrace: true,
			Resolution: res}, c, neat.New()).Run()
	}
	ev := run(ResolutionEvent)
	// The clamped date still fires through the scheduled path — counted
	// as a scheduled wake, with no request ever paying a wake penalty.
	if ev.ScheduledWakes == 0 {
		t.Fatal("no scheduled wake fired; the clamped timer path is dead")
	}
	if ev.WakeLatency.Count() != 0 {
		t.Fatalf("%d wake-penalized requests on a timer-driven host", ev.WakeLatency.Count())
	}
	// And the host sleeps strictly longer than at hourly resolution:
	// the hourly mode wakes it at the hour boundary and pins it awake
	// for the whole backup hour, the clamped event mode only for the
	// bursts (plus lead and transitions).
	hr := run(ResolutionHourly)
	if !(ev.GlobalSuspFrac > hr.GlobalSuspFrac) {
		t.Fatalf("event suspended fraction %.4f should exceed hourly %.4f",
			ev.GlobalSuspFrac, hr.GlobalSuspFrac)
	}
	if !(ev.EnergyKWh < hr.EnergyKWh) {
		t.Fatalf("event energy %.4f kWh should undercut hourly %.4f kWh",
			ev.EnergyKWh, hr.EnergyKWh)
	}
}

// TestTimerRefreshAtExpiryBoundary pins the refresh boundary: an
// hr-timer expiring exactly at an hour start has expired at that hour,
// so the hour's refresh replaces it with the VM's next active hour.
// The backup VM's timer for its 02:00 run (hour 26) must read hour 50
// once hour 26 is played, in the runtime's entry and in the checkpoint
// of the next boundary.
func TestTimerRefreshAtExpiryBoundary(t *testing.T) {
	const wakeHour, nextHour = simtime.Hour(26), simtime.Hour(50)
	c, v := backupCluster(0)
	var r *Runner
	seen := map[simtime.Hour][2]simtime.Time{} // boundary → entry, checkpoint
	r = NewRunner(Config{StartHour: 3, Hours: 25, EnableSuspend: true, UseGrace: true,
		CheckpointEveryHours: 1,
		Checkpoint: func(hr simtime.Hour, data []byte) {
			if hr != wakeHour && hr != wakeHour+1 {
				return
			}
			st, err := checkpoint.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			vr := r.vms[v.Slot()]
			if len(st.VMs) != 1 || !st.VMs[0].HasTimer || !vr.hasTimer {
				t.Fatalf("boundary %d: no hr-timer held", hr)
			}
			seen[hr] = [2]simtime.Time{vr.timerAt, simtime.Time(st.VMs[0].TimerAt)}
		}}, c, neat.New())
	r.Run()
	if got, want := seen[wakeHour], wakeHour.Start(); got != [2]simtime.Time{want, want} {
		t.Fatalf("before hour %d: entry and checkpoint timers %v, want both %d", wakeHour, got, want)
	}
	if got, want := seen[wakeHour+1], nextHour.Start(); got != [2]simtime.Time{want, want} {
		t.Fatalf("after hour %d: entry and checkpoint timers %v, want both %d (hour %d)",
			wakeHour, got, want, nextHour)
	}
}
