package netsim

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestRouteWakesSuspendedHost(t *testing.T) {
	var woken []MAC
	s := NewSwitch(func(m MAC) { woken = append(woken, m) }, NewTable(0))
	s.MapSuspended(7, []VMID{1, 2})
	if !s.Route(Packet{Dst: 1}) {
		t.Fatal("packet to suspended VM should trigger a wake")
	}
	if len(woken) != 1 || woken[0] != 7 {
		t.Fatalf("woken = %v", woken)
	}
	// VM on an awake host: direct forward.
	if s.Route(Packet{Dst: 99}) {
		t.Fatal("unknown VM should not wake anything")
	}
	if len(woken) != 1 {
		t.Fatalf("woken = %v after a direct forward", woken)
	}
}

func TestUnmapHost(t *testing.T) {
	s := NewSwitch(func(MAC) {}, NewTable(0))
	s.MapSuspended(1, []VMID{10, 11})
	s.MapSuspended(2, []VMID{20})
	s.UnmapHost(1)
	if _, ok := s.Lookup(10); ok {
		t.Fatal("VM 10 should be unmapped")
	}
	if mac, ok := s.Lookup(20); !ok || mac != 2 {
		t.Fatal("VM 20 mapping lost")
	}
	if _, ok := s.HostVMs(1); ok {
		t.Fatal("host 1 still listed after UnmapHost")
	}
	s.UnmapHost(1) // idempotent
	hosts := s.SuspendedHosts()
	if len(hosts) != 1 || hosts[0] != 2 {
		t.Fatalf("suspended hosts = %v", hosts)
	}
}

func TestDoubleSuspendPanics(t *testing.T) {
	s := NewSwitch(func(MAC) {}, NewTable(0))
	s.MapSuspended(1, []VMID{10})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.MapSuspended(1, []VMID{11})
}

func TestNegativeMACPanics(t *testing.T) {
	s := NewSwitch(func(MAC) {}, NewTable(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.MapSuspended(-1, []VMID{10})
}

// TestMACTableSpansWrittenMACs pins the per-host entries' memory: a
// switch serving a rack of consecutive MACs far from zero holds one
// entry per MAC of the rack, whatever order they arrive in, and reads
// and unmaps of other MACs never grow it.
func TestMACTableSpansWrittenMACs(t *testing.T) {
	const base = 1 << 12
	s := NewSwitch(func(MAC) {}, NewTable(0))
	for _, off := range []MAC{32, 63, 0, 17} {
		s.MapSuspended(base+off, []VMID{VMID(off)})
	}
	if n := len(s.hosts.rows); n != 64 {
		t.Fatalf("per-host entries = %d, want 64", n)
	}
	s.HostVMs(0)
	s.HostVMs(2 * base)
	s.UnmapHost(5)
	s.UnmapHost(2 * base)
	s.UnmapHost(base + 17)
	if n := len(s.hosts.rows); n != 64 {
		t.Fatalf("per-host entries = %d after reads and unmaps, want 64", n)
	}
	if got, want := s.SuspendedHosts(), []MAC{base, base + 32, base + 63}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SuspendedHosts = %v, want %v", got, want)
	}
}

// TestSharedTable pins the fabric-wide VM table: switches of racks
// holding disjoint VMs share one, each routing the packets of the VMs
// it mapped, and a table sized up front never grows.
func TestSharedTable(t *testing.T) {
	tab := NewTable(8)
	var woken []MAC
	wol := func(m MAC) { woken = append(woken, m) }
	a, b := NewSwitch(wol, tab), NewSwitch(wol, tab)
	a.MapSuspended(1, []VMID{0, 2})
	b.MapSuspended(9, []VMID{1, 7})
	if !a.Route(Packet{Dst: 2}) || !b.Route(Packet{Dst: 7}) {
		t.Fatal("each switch must route the VMs it mapped")
	}
	b.UnmapHost(9)
	if _, ok := b.Lookup(7); ok {
		t.Fatal("VM 7 still mapped after its host resumed")
	}
	if mac, ok := a.Lookup(0); !ok || mac != 1 {
		t.Fatalf("Lookup(0) = %d,%v after the other rack's unmap; want 1,true", mac, ok)
	}
	if !reflect.DeepEqual(woken, []MAC{1, 9}) {
		t.Fatalf("woken = %v, want [1 9]", woken)
	}
	if n := len(tab.macs); n != 8 {
		t.Fatalf("table length = %d, want the 8 it was sized to", n)
	}
}

func TestNilWoLPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSwitch(nil, NewTable(0))
}

func TestNilTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSwitch(func(MAC) {}, nil)
}

func TestMapSuspendedCopiesSlice(t *testing.T) {
	s := NewSwitch(func(MAC) {}, NewTable(0))
	vms := []VMID{1, 2}
	s.MapSuspended(5, vms)
	vms[0] = 99 // mutate caller's slice
	if _, ok := s.Lookup(1); !ok {
		t.Fatal("switch must copy the VM list")
	}
	if got, ok := s.HostVMs(5); !ok || len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("HostVMs(5) = %v, %v; want the switch's copy [1 2]", got, ok)
	}
}

// TestMapUnmapReusesList: a host keeps its VM list's storage across
// suspensions, so after one warm-up a suspend/resume cycle of a host
// allocates nothing.
func TestMapUnmapReusesList(t *testing.T) {
	s := NewSwitch(func(MAC) {}, NewTable(8))
	vms := []VMID{1, 2, 3}
	cycle := func() {
		s.MapSuspended(4, vms)
		s.UnmapHost(4)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a map/unmap cycle allocated %v times, want 0", n)
	}
}

func TestLookupConsistencyProperty(t *testing.T) {
	// Property: after arbitrary suspend/resume interleavings every
	// mapped VM resolves to the host it was last suspended with.
	f := func(ops []uint8) bool {
		s := NewSwitch(func(MAC) {}, NewTable(0))
		suspended := map[MAC][]VMID{}
		next := VMID(0)
		for _, op := range ops {
			mac := MAC(op % 8)
			if _, isSusp := suspended[mac]; !isSusp && op < 200 {
				vms := []VMID{next, next + 1}
				next += 2
				s.MapSuspended(mac, vms)
				suspended[mac] = vms
			} else if isSusp {
				s.UnmapHost(mac)
				delete(suspended, mac)
			}
		}
		for mac, vms := range suspended {
			for _, vm := range vms {
				got, ok := s.Lookup(vm)
				if !ok || got != mac {
					return false
				}
			}
		}
		return len(s.SuspendedHosts()) == len(suspended)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRoute(b *testing.B) {
	s := NewSwitch(func(MAC) {}, NewTable(0))
	for h := 0; h < 100; h++ {
		vms := make([]VMID, 10)
		for i := range vms {
			vms[i] = VMID(h*10 + i)
		}
		s.MapSuspended(MAC(h), vms)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Route(Packet{Dst: VMID(i % 2000)})
	}
}
