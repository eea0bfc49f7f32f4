// Package netsim models the network elements Drowsy-DC's waking path
// depends on (§V-A of the paper): a software-defined-network switch that
// sees every inbound request, a hashmap from VM addresses to the MAC
// addresses of the suspended servers hosting them, and Wake-on-LAN
// delivery. The physical testbed keeps the NIC powered in S3 (Intel I350
// + BMC link in the paper's references); here WoL delivery is a callback
// into the cluster model.
//
// The paper's VM→MAC hashmap is a table indexed by VM address here,
// with the same O(1) lookups and updates and no hashing: the simulation
// runtime addresses VMs by the dense slots it stamps on them, and hosts
// by their IDs. Addresses must be non-negative. The VM table spans the
// addresses up to the largest one mapped, and the switches of racks
// holding disjoint VMs share one. A switch's per-host entries span the
// MACs between the smallest and the largest it has mapped, so a rack's
// switch holds entries for its own hosts only. Sparse addresses cost
// memory, never correctness.
package netsim

import (
	"fmt"
	"iter"
)

// VMID addresses a VM (the paper keys the hashmap by VM IP address; the
// simulation runtime uses the VM's dense slot).
type VMID int

// MAC addresses a host NIC for Wake-on-LAN.
type MAC int

// Packet is an inbound request observed by the SDN switch.
type Packet struct {
	Dst VMID
}

// Table is the VM→MAC hashmap as a slice indexed by VM address: entry
// vm is 1 + the MAC of the suspended host vm is mapped to, 0 when
// unmapped. Switches whose racks hold disjoint VMs may share a table.
// Each entry is then written only by the switch of the rack holding its
// VM, which is also the switch its packets reach, so a fabric stores one
// entry per VM rather than one per VM and rack. A write past the end
// grows the table, so a table shared by switches on different
// goroutines must be sized by NewTable to cover every address.
type Table struct {
	macs []MAC
}

// NewTable returns a table covering VM addresses [0, n).
func NewTable(n int) *Table { return &Table{macs: make([]MAC, n)} }

// MACTable holds one entry per host, indexed by MAC. It spans the MACs
// between the smallest and the largest written, so a switch or waking
// module serving a rack of consecutive MACs holds that rack's entries
// only, whatever the MACs' magnitude.
type MACTable[T any] struct {
	lo   MAC
	rows []T
}

// At returns mac's entry for writing, growing the table to cover it.
// The pointer is valid until the next call to At.
func (t *MACTable[T]) At(mac MAC) *T {
	switch {
	case len(t.rows) == 0:
		t.lo = mac
	case mac < t.lo:
		n := int(t.lo - mac)
		t.rows = append(make([]T, n, n+len(t.rows)), t.rows...)
		t.lo = mac
	}
	if i := int(mac - t.lo); i >= len(t.rows) {
		t.rows = append(t.rows, make([]T, i+1-len(t.rows))...)
	}
	return &t.rows[mac-t.lo]
}

// Get returns mac's entry, or the zero value when the table does not
// cover mac. It never grows the table.
func (t *MACTable[T]) Get(mac MAC) T {
	if mac >= t.lo && int(mac-t.lo) < len(t.rows) {
		return t.rows[mac-t.lo]
	}
	var zero T
	return zero
}

// All yields every covered MAC and its entry, in ascending MAC order.
func (t *MACTable[T]) All() iter.Seq2[MAC, *T] {
	return func(yield func(MAC, *T) bool) {
		for i := range t.rows {
			if !yield(t.lo+MAC(i), &t.rows[i]) {
				return
			}
		}
	}
}

// Switch is the SDN switch's view of suspended placements: a table
// from VM address to suspended-host MAC, maintained only while hosts are
// suspended (the paper's footnote: "the VM to host mappings are only
// updated when a host is suspended"). Route is the lightweight packet
// analyzer: O(1) per packet.
type Switch struct {
	vms   *Table
	hosts MACTable[suspended]
	wol   func(MAC)
}

// suspended is one host's entry: its VM list while mapped. An unmapped
// host keeps its last list's storage, emptied, for its next suspension.
type suspended struct {
	vms    []VMID
	mapped bool
}

// NewSwitch creates a switch that records its VM→MAC mappings in vms
// and calls wol to deliver a Wake-on-LAN packet to a suspended host.
func NewSwitch(wol func(MAC), vms *Table) *Switch {
	if wol == nil {
		panic("netsim: nil WoL callback")
	}
	if vms == nil {
		panic("netsim: nil VM table")
	}
	return &Switch{vms: vms, wol: wol}
}

// MapSuspended records that host mac was suspended while hosting vms.
// It copies vms into the host's own list, which reuses the storage of
// the host's previous one.
func (s *Switch) MapSuspended(mac MAC, vms []VMID) {
	if mac < 0 {
		panic(fmt.Sprintf("netsim: negative MAC %d", mac))
	}
	h := s.hosts.At(mac)
	if h.mapped {
		panic(fmt.Sprintf("netsim: host %d suspended twice without resume", mac))
	}
	h.vms, h.mapped = append(h.vms, vms...), true
	t := s.vms
	for _, vm := range h.vms {
		if int(vm) >= len(t.macs) {
			t.macs = append(t.macs, make([]MAC, int(vm)+1-len(t.macs))...)
		}
		t.macs[vm] = mac + 1
	}
}

// UnmapHost removes the mappings of a resumed host. Unknown hosts are a
// no-op: a WoL may race with an already-initiated resume.
func (s *Switch) UnmapHost(mac MAC) {
	h := s.hosts.Get(mac)
	if !h.mapped {
		return
	}
	for _, vm := range h.vms {
		s.vms.macs[vm] = 0
	}
	*s.hosts.At(mac) = suspended{vms: h.vms[:0]}
}

// HostVMs returns the VM list of suspended host mac and whether it is
// mapped; an empty list, and an unmapped host's, is nil. The list stays
// valid until the host is mapped again, and callers must not modify it.
func (s *Switch) HostVMs(mac MAC) ([]VMID, bool) {
	h := s.hosts.Get(mac)
	if len(h.vms) == 0 {
		return nil, h.mapped
	}
	return h.vms, h.mapped
}

// Lookup returns the suspended host of a VM, if any.
func (s *Switch) Lookup(vm VMID) (MAC, bool) {
	t := s.vms.macs
	if vm < 0 || int(vm) >= len(t) || t[vm] == 0 {
		return 0, false
	}
	return t[vm] - 1, true
}

// SuspendedHosts returns the MACs with live mappings, sorted.
func (s *Switch) SuspendedHosts() []MAC {
	var out []MAC
	for mac, h := range s.hosts.All() {
		if h.mapped {
			out = append(out, mac)
		}
	}
	return out
}

// Route processes one inbound packet. If the destination VM lives on a
// suspended host, a WoL packet is sent first (the packet itself is then
// held by the fabric until the host resumes — latency accounting is the
// workload model's concern). It reports whether a wake was triggered.
func (s *Switch) Route(p Packet) bool {
	mac, ok := s.Lookup(p.Dst)
	if !ok {
		return false
	}
	s.wol(mac)
	return true
}
