package waking

import (
	"fmt"
	"testing"

	"drowsydc/internal/netsim"
	"drowsydc/internal/sim"
)

func newTestModule(e *sim.Engine, woken *[]netsim.MAC) *Module {
	return New(e, 1 /* 1s lead */, func(m netsim.MAC) { *woken = append(*woken, m) }, netsim.NewTable(0))
}

func TestScheduledWakeFiresAheadOfTime(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule(e, &woken)
	// Host 3 suspends at t=0, waking date t=100; lead is 1s → WoL at 99.
	m.HostSuspended(3, []netsim.VMID{1}, 100, true)
	e.RunUntil(98)
	if len(woken) != 0 {
		t.Fatal("woke too early")
	}
	e.RunUntil(99)
	if len(woken) != 1 || woken[0] != 3 {
		t.Fatalf("woken = %v at t=99", woken)
	}
	sched, pkt := m.Stats()
	if sched != 1 || pkt != 0 {
		t.Fatalf("stats = %d %d", sched, pkt)
	}
}

func TestPacketWake(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule(e, &woken)
	m.HostSuspended(5, []netsim.VMID{42}, 0, false) // indefinite sleep
	if !m.PacketArrived(netsim.Packet{Dst: 42}) {
		t.Fatal("packet should wake host 5")
	}
	if len(woken) != 1 || woken[0] != 5 {
		t.Fatalf("woken = %v", woken)
	}
	if m.PacketArrived(netsim.Packet{Dst: 77}) {
		t.Fatal("packet to unmapped VM must not wake")
	}
}

func TestHostResumedCancelsSchedule(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule(e, &woken)
	m.HostSuspended(4, []netsim.VMID{9}, 50, true)
	m.HostResumed(4) // e.g. woken early by a packet elsewhere
	e.RunUntil(200)
	if len(woken) != 0 {
		t.Fatalf("canceled schedule still fired: %v", woken)
	}
	if m.PacketArrived(netsim.Packet{Dst: 9}) {
		t.Fatal("resumed host should be unmapped")
	}
}

func TestPastWakeDateFiresImmediately(t *testing.T) {
	e := sim.New()
	e.RunUntil(1000)
	var woken []netsim.MAC
	m := newTestModule(e, &woken)
	// Waking date minus lead is in the past: fire at now.
	m.HostSuspended(1, []netsim.VMID{2}, 1000, true)
	e.RunUntil(1001)
	if len(woken) != 1 {
		t.Fatal("imminent wake date should fire immediately")
	}
}

func TestConstructorValidation(t *testing.T) {
	e := sim.New()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil wol should panic")
			}
		}()
		New(e, 1, nil, netsim.NewTable(0))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative lead should panic")
			}
		}()
		New(e, -1, func(netsim.MAC) {}, netsim.NewTable(0))
	}()
}

// TestPendingWakeDateAndCounters pins the checkpoint surface: the raw
// waking date (not the lead-adjusted fire instant) while a wake is
// pending, none once the host resumed, and restorable wake counters.
func TestPendingWakeDateAndCounters(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule(e, &woken)
	m.HostSuspended(3, []netsim.VMID{1}, 100, true)
	if at, ok := m.PendingWakeDate(3); !ok || at != 100 {
		t.Fatalf("PendingWakeDate(3) = %v,%v; want 100,true", at, ok)
	}
	if _, ok := m.PendingWakeDate(4); ok {
		t.Fatal("host 4 never suspended: no pending date expected")
	}
	m.HostResumed(3)
	if _, ok := m.PendingWakeDate(3); ok {
		t.Fatal("a resumed host keeps no pending date")
	}
	m.RestoreCounters(7, 9)
	if s, p := m.Stats(); s != 7 || p != 9 {
		t.Fatalf("Stats after RestoreCounters = %d,%d; want 7,9", s, p)
	}
}

// TestSwitchAccessor pins the packet-path accessor the workload model
// uses.
func TestSwitchAccessor(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule(e, &woken)
	if m.Switch() == nil {
		t.Fatal("nil switch")
	}
	m.HostSuspended(4, []netsim.VMID{9}, 0, false)
	if !m.Switch().Route(netsim.Packet{Dst: 9}) {
		t.Fatal("switch did not route to the suspended host")
	}
}

func TestFireScheduledEarly(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule(e, &woken)
	// No pending wake: nothing to report or fire.
	if _, ok := m.ScheduledFire(9); ok {
		t.Fatal("phantom scheduled fire on an unknown host")
	}
	if m.FireScheduled(9) {
		t.Fatal("fired a wake that was never registered")
	}
	// Host 4 suspends with a waking date at t=100; lead 1s → due t=99.
	m.HostSuspended(4, []netsim.VMID{7}, 100, true)
	due, ok := m.ScheduledFire(4)
	if !ok || due != 99 {
		t.Fatalf("scheduled fire = %d, %v; want 99, true", due, ok)
	}
	// The sub-hourly walk fires it early, at its true instant: counted
	// as a scheduled wake, engine event retired.
	if !m.FireScheduled(4) {
		t.Fatal("pending wake did not fire")
	}
	if len(woken) != 1 || woken[0] != 4 {
		t.Fatalf("woken = %v", woken)
	}
	sched, _ := m.Stats()
	if sched != 1 {
		t.Fatalf("scheduled wakes = %d, want 1", sched)
	}
	// Idempotent: the wake is consumed, and draining the engine fires
	// nothing further (no double WoL at the old instant).
	if m.FireScheduled(4) {
		t.Fatal("wake fired twice")
	}
	if _, ok := m.ScheduledFire(4); ok {
		t.Fatal("consumed wake still reported pending")
	}
	e.RunUntil(200)
	if len(woken) != 1 {
		t.Fatalf("engine refired a consumed wake: %v", woken)
	}
}

func TestScheduledFireClampsToPresent(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule(e, &woken)
	e.RunUntil(50)
	// Waking date nearly due: the lead would reach before now.
	m.HostSuspended(2, []netsim.VMID{1}, 50, true)
	due, ok := m.ScheduledFire(2)
	if !ok || due != 50 {
		t.Fatalf("scheduled fire = %d, %v; want clamped to now (50), true", due, ok)
	}
	// HostResumed retires the pending wake; firing afterwards is a no-op.
	m.HostResumed(2)
	if m.FireScheduled(2) {
		t.Fatal("fired after HostResumed retired the schedule")
	}
}

// moduleWithSleepers returns a module holding sleepers suspended hosts
// whose wakes lie far beyond any cycle's.
func moduleWithSleepers(sleepers int) (*Module, *sim.Engine) {
	e := sim.New()
	m := New(e, 1, func(netsim.MAC) {}, netsim.NewTable(0))
	for h := 0; h < sleepers; h++ {
		mac := netsim.MAC(1 + h)
		m.HostSuspended(mac, []netsim.VMID{netsim.VMID(4 * mac), netsim.VMID(4*mac + 1)}, 1<<40, true)
	}
	return m, e
}

// suspendResumeCycle suspends and resumes host 0 with a scheduled wake,
// then pops the canceled timer so the engine queue stays flat.
func suspendResumeCycle(m *Module, e *sim.Engine) {
	m.HostSuspended(0, []netsim.VMID{0, 1}, 100, true)
	m.HostResumed(0)
	e.RunUntil(e.Now())
}

// TestSuspendResumeAllocsFlat guards the per-host cost of a transition:
// one suspend+resume cycle allocates the same whatever the number of
// other sleepers the module holds.
func TestSuspendResumeAllocsFlat(t *testing.T) {
	var allocs [2]float64
	for i, sleepers := range []int{0, 63} {
		m, e := moduleWithSleepers(sleepers)
		allocs[i] = testing.AllocsPerRun(200, func() { suspendResumeCycle(m, e) })
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("allocs per cycle: %v with 0 sleepers, %v with 63; want equal", allocs[0], allocs[1])
	}
}

func BenchmarkSuspendResumeCycle(b *testing.B) {
	for _, sleepers := range []int{0, 63} {
		b.Run(fmt.Sprintf("sleepers-%d", sleepers), func(b *testing.B) {
			m, e := moduleWithSleepers(sleepers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				suspendResumeCycle(m, e)
			}
		})
	}
}
