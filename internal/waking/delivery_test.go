package waking

import (
	"testing"

	"drowsydc/internal/netsim"
	"drowsydc/internal/sim"
)

func TestSetDeliveryRoutesWakes(t *testing.T) {
	e := sim.New()
	var perfect []netsim.MAC
	m := newTestModule(e, &perfect)
	lm := netsim.NewLossModel(netsim.Config{WakeLoss: 1}.WithDefaults(), nil, 8)
	var outs []netsim.WakeOutcome
	var macs []netsim.MAC
	m.SetDelivery(lm, func(mac netsim.MAC, out netsim.WakeOutcome) {
		macs = append(macs, mac)
		outs = append(outs, out)
	})

	// Packet wakes go through the delivery model, not the perfect path.
	m.HostSuspended(5, []netsim.VMID{42}, 0, false)
	if !m.PacketArrived(netsim.Packet{Dst: 42}) {
		t.Fatal("packet should trigger a wake transaction")
	}
	if len(perfect) != 0 {
		t.Fatalf("perfect callback fired with a delivery model installed: %v", perfect)
	}
	if len(macs) != 1 || macs[0] != 5 {
		t.Fatalf("delivered macs = %v", macs)
	}
	if outs[0].Delivered {
		t.Fatalf("loss 1 delivered: %+v", outs[0])
	}

	// Scheduled wakes too.
	m.HostResumed(5)
	m.HostSuspended(3, []netsim.VMID{9}, 100, true)
	e.RunUntil(200)
	if len(macs) != 2 || macs[1] != 3 {
		t.Fatalf("delivered macs after scheduled fire = %v", macs)
	}
	sched, pkt := m.Stats()
	if sched != 1 || pkt != 1 {
		t.Fatalf("stats = %d %d", sched, pkt)
	}
	if len(perfect) != 0 {
		t.Fatalf("perfect callback fired: %v", perfect)
	}
}

func TestSetDeliveryReset(t *testing.T) {
	e := sim.New()
	var perfect []netsim.MAC
	m := newTestModule(e, &perfect)
	lm := netsim.NewLossModel(netsim.Config{}.WithDefaults(), nil, 8)
	m.SetDelivery(lm, func(netsim.MAC, netsim.WakeOutcome) {})
	m.SetDelivery(nil, nil) // back to the perfect callback
	m.HostSuspended(2, []netsim.VMID{7}, 0, false)
	if !m.PacketArrived(netsim.Packet{Dst: 7}) {
		t.Fatal("packet should wake host 2")
	}
	if len(perfect) != 1 || perfect[0] != 2 {
		t.Fatalf("perfect callback after reset = %v", perfect)
	}
}

func TestSetDeliveryHalfNilPanics(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule(e, &woken)
	lm := netsim.NewLossModel(netsim.Config{}.WithDefaults(), nil, 1)
	for name, fn := range map[string]func(){
		"model without callback": func() { m.SetDelivery(lm, nil) },
		"callback without model": func() { m.SetDelivery(nil, func(netsim.MAC, netsim.WakeOutcome) {}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		})
	}
}
