package cluster

import (
	"testing"
	"testing/quick"

	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

func mkVM(id int, mem int) *VM {
	return NewVM(id, "vm", KindLLMI, mem, 2, trace.DailyBackup(0.5))
}

func TestPlaceAndCapacity(t *testing.T) {
	c := New()
	h := NewHost(0, "p1", 16, 8, 2)
	c.AddHost(h)
	a, b, d := mkVM(0, 6), mkVM(1, 6), mkVM(2, 6)
	c.AddVM(a)
	c.AddVM(b)
	c.AddVM(d)
	if err := c.Place(a, h); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(b, h); err != nil {
		t.Fatal(err)
	}
	// Third VM: memory would be 18 > 16, and slots full anyway.
	if err := c.Place(d, h); err == nil {
		t.Fatal("overcommit should fail")
	}
	if err := c.Place(a, h); err == nil {
		t.Fatal("double placement should fail")
	}
	if h.MemUsed() != 12 || h.NumVMs() != 2 {
		t.Fatalf("mem=%d n=%d", h.MemUsed(), h.NumVMs())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSlotLimit(t *testing.T) {
	h := NewHost(0, "p1", 100, 8, 1)
	a, b := mkVM(0, 1), mkVM(1, 1)
	c := New()
	c.AddHost(h)
	if err := c.Place(a, h); err != nil {
		t.Fatal(err)
	}
	if h.CanHost(b) {
		t.Fatal("slot limit ignored")
	}
	unbounded := NewHost(1, "p2", 100, 8, 0)
	if !unbounded.CanHost(b) {
		t.Fatal("MaxVMs=0 should be unbounded")
	}
}

func TestMigrate(t *testing.T) {
	c := New()
	h1 := NewHost(0, "p1", 16, 8, 2)
	h2 := NewHost(1, "p2", 16, 8, 2)
	c.AddHost(h1)
	c.AddHost(h2)
	v := mkVM(0, 6)
	c.AddVM(v)
	if err := c.Place(v, h1); err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate(v, h2); err != nil {
		t.Fatal(err)
	}
	if v.Host() != h2 || h1.NumVMs() != 0 || h2.NumVMs() != 1 {
		t.Fatal("migration left inconsistent placement")
	}
	if v.Migrations() != 1 || c.Migrations() != 1 {
		t.Fatal("migration counters wrong")
	}
	if c.MigrationSeconds() != 6/1.25 {
		t.Fatalf("migration seconds = %v", c.MigrationSeconds())
	}
	// Self-migration is a free no-op.
	if err := c.Migrate(v, h2); err != nil {
		t.Fatal(err)
	}
	if c.Migrations() != 1 {
		t.Fatal("self-migration should not count")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateErrors(t *testing.T) {
	c := New()
	h1 := NewHost(0, "p1", 16, 8, 2)
	h2 := NewHost(1, "p2", 4, 8, 2)
	c.AddHost(h1)
	c.AddHost(h2)
	v := mkVM(0, 6)
	c.AddVM(v)
	if err := c.Migrate(v, h1); err == nil {
		t.Fatal("migrating unplaced VM should fail")
	}
	if err := c.Place(v, h1); err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate(v, h2); err == nil {
		t.Fatal("migrating into too-small host should fail")
	}
	if v.Host() != h1 {
		t.Fatal("failed migration must not move the VM")
	}
}

func TestUtilizationAndIP(t *testing.T) {
	c := New()
	h := NewHost(0, "p1", 16, 4, 2)
	c.AddHost(h)
	// Backup trace: active (0.5) at 02:00.
	v := NewVM(0, "v", KindLLMI, 6, 2, trace.DailyBackup(0.5))
	c.AddVM(v)
	if err := c.Place(v, h); err != nil {
		t.Fatal(err)
	}
	if got := h.Utilization(2); got != 0.5*2/4 {
		t.Fatalf("utilization at 02:00 = %v", got)
	}
	if got := h.Utilization(3); got != 0 {
		t.Fatalf("utilization at 03:00 = %v", got)
	}
	// Fresh model: IP 0, probability 0.5.
	if h.IP(0) != 0 || h.Probability(0) != 0.5 {
		t.Fatal("fresh host IP should be undetermined")
	}
	// Train the VM idle: host IP rises.
	for i := 0; i < 48; i++ {
		v.Model.Observe(simtime.Decompose(simtime.Hour(i)), 0)
	}
	if h.IP(50) <= 0 {
		t.Fatalf("host IP after idle training = %v", h.IP(50))
	}
}

func TestIPRange(t *testing.T) {
	c := New()
	h := NewHost(0, "p1", 32, 8, 4)
	c.AddHost(h)
	idle := NewVM(0, "idle", KindLLMI, 6, 2, trace.DailyBackup(0.1))
	busy := NewVM(1, "busy", KindLLMU, 6, 2, trace.LLMU(1))
	c.AddVM(idle)
	c.AddVM(busy)
	if err := c.Place(idle, h); err != nil {
		t.Fatal(err)
	}
	if h.IPRange(0) != 0 {
		t.Fatal("single-VM host must have zero IP range")
	}
	if err := c.Place(busy, h); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 72; i++ {
		idle.Model.Observe(simtime.Decompose(simtime.Hour(i)), idle.Activity(simtime.Hour(i)))
		busy.Model.Observe(simtime.Decompose(simtime.Hour(i)), busy.Activity(simtime.Hour(i)))
	}
	if h.IPRange(80) <= 0 {
		t.Fatalf("mixed host should have positive IP range, got %v", h.IPRange(80))
	}
}

func TestAssignments(t *testing.T) {
	c := New()
	h1 := NewHost(3, "p1", 16, 8, 2)
	h2 := NewHost(7, "p2", 16, 8, 2)
	c.AddHost(h1)
	c.AddHost(h2)
	a, b, d := mkVM(0, 6), mkVM(1, 6), mkVM(2, 6)
	for _, v := range []*VM{a, b, d} {
		c.AddVM(v)
	}
	_ = c.Place(a, h1)
	_ = c.Place(b, h2)
	got := c.Assignments()
	want := []int{3, 7, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assignments = %v, want %v", got, want)
		}
	}
}

func TestSortVMsByMemDesc(t *testing.T) {
	vms := []*VM{mkVM(0, 2), mkVM(1, 8), mkVM(2, 4), mkVM(3, 8)}
	sorted := SortVMsByMemDesc(vms)
	if sorted[0].ID != 1 || sorted[1].ID != 3 || sorted[2].ID != 2 || sorted[3].ID != 0 {
		ids := []int{sorted[0].ID, sorted[1].ID, sorted[2].ID, sorted[3].ID}
		t.Fatalf("order = %v", ids)
	}
	// Original slice untouched.
	if vms[0].ID != 0 {
		t.Fatal("SortVMsByMemDesc must not mutate its input")
	}
}

func TestHostLookup(t *testing.T) {
	c := New()
	h := NewHost(42, "p", 16, 8, 2)
	c.AddHost(h)
	if c.Host(42) != h || c.Host(1) != nil {
		t.Fatal("Host lookup broken")
	}
}

func TestKindString(t *testing.T) {
	if KindLLMI.String() != "LLMI" || KindLLMU.String() != "LLMU" ||
		KindSLMU.String() != "SLMU" || Kind(9).String() == "" {
		t.Fatal("kind names wrong")
	}
}

func TestConstructorPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad VM should panic")
			}
		}()
		NewVM(0, "x", KindLLMI, 0, 1, trace.DailyBackup(1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad host should panic")
			}
		}()
		NewHost(0, "x", 16, 0, 2)
	}()
}

func TestPlacementInvariantProperty(t *testing.T) {
	// Property: arbitrary sequences of place/migrate attempts never
	// violate cluster invariants, regardless of failures.
	f := func(ops []uint8) bool {
		c := New()
		for i := 0; i < 4; i++ {
			c.AddHost(NewHost(i, "h", 16, 8, 2))
		}
		for i := 0; i < 6; i++ {
			c.AddVM(mkVM(i, 1+i%8))
		}
		for _, op := range ops {
			v := c.VMs()[int(op)%6]
			h := c.Hosts()[int(op/8)%4]
			if v.Host() == nil {
				_ = c.Place(v, h)
			} else {
				_ = c.Migrate(v, h)
			}
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
