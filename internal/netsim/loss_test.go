package netsim

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func lossCfg(t *testing.T, c Config) Config {
	t.Helper()
	c = c.WithDefaults()
	if err := c.Validate(); err != nil {
		t.Fatalf("config %+v invalid: %v", c, err)
	}
	return c
}

func TestLossConfigDefaults(t *testing.T) {
	c := Config{WakeLoss: 0.25}.WithDefaults()
	if c.RetryTimeoutSeconds != 1 || c.RetryBackoff != 2 || c.MaxAttempts != 6 ||
		c.GiveUpSilenceSeconds != 10 {
		t.Fatalf("retry defaults wrong: %+v", c)
	}
	if c.RetryJoules != 5 || c.RecoveryJoules != 50 || c.RelayWatts != 2 || c.RelayWakeJoules != 0.5 {
		t.Fatalf("energy defaults wrong: %+v", c)
	}
	if c.WakeLoss != 0.25 {
		t.Fatalf("WithDefaults clobbered WakeLoss: %v", c.WakeLoss)
	}
}

func TestLossConfigValidate(t *testing.T) {
	base := Config{WakeLoss: 0.1}.WithDefaults()
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"loss negative", func(c *Config) { c.WakeLoss = -0.1 }, "wake-loss"},
		{"loss above one", func(c *Config) { c.WakeLoss = 1.5 }, "wake-loss"},
		{"loss NaN", func(c *Config) { c.WakeLoss = math.NaN() }, "wake-loss"},
		{"timeout negative", func(c *Config) { c.RetryTimeoutSeconds = -1 }, "retry-timeout"},
		{"timeout NaN", func(c *Config) { c.RetryTimeoutSeconds = math.NaN() }, "retry-timeout"},
		{"timeout Inf", func(c *Config) { c.RetryTimeoutSeconds = math.Inf(1) }, "retry-timeout"},
		{"backoff below one", func(c *Config) { c.RetryBackoff = 0.5 }, "retry-backoff"},
		{"backoff NaN", func(c *Config) { c.RetryBackoff = math.NaN() }, "retry-backoff"},
		{"attempts below one", func(c *Config) { c.MaxAttempts = -2 }, "max-attempts"},
		{"giveup negative", func(c *Config) { c.GiveUpSilenceSeconds = -5 }, "give-up-silence"},
		{"giveup NaN", func(c *Config) { c.GiveUpSilenceSeconds = math.NaN() }, "give-up-silence"},
		{"retry joules negative", func(c *Config) { c.RetryJoules = -1 }, "retry-joules"},
		{"recovery joules NaN", func(c *Config) { c.RecoveryJoules = math.NaN() }, "recovery-joules"},
		{"relay watts Inf", func(c *Config) { c.RelayWatts = math.Inf(1) }, "relay-watts"},
		{"relay wake joules negative", func(c *Config) { c.RelayWakeJoules = -0.5 }, "relay-wake-joules"},
		{"relay subnet negative", func(c *Config) { c.RelaySubnets = []int{0, -1} }, "relay-subnets"},
		{"relay subnet duplicate", func(c *Config) { c.RelaySubnets = []int{1, 1} }, "twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.mut(&c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("config %+v accepted", c)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("resolved default config rejected: %v", err)
	}
}

func TestNewLossModelPanics(t *testing.T) {
	ok := lossCfg(t, Config{WakeLoss: 0.1})
	cases := []struct {
		name string
		fn   func()
	}{
		{"invalid config", func() { NewLossModel(Config{WakeLoss: 2}.WithDefaults(), nil, 4) }},
		{"unresolved config", func() { NewLossModel(Config{WakeLoss: 0.1}, nil, 4) }},
		{"negative host count", func() { NewLossModel(ok, nil, -1) }},
		{"subnet map size mismatch", func() { NewLossModel(ok, []int{0, 1}, 4) }},
		{"negative subnet", func() { NewLossModel(ok, []int{0, -3, 0, 0}, 4) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.fn()
		})
	}
}

// The attempt schedule: first attempt immediate, retransmissions at the
// cumulative backoff instants strictly below the give-up silence, capped
// by MaxAttempts — so aggressiveness (shorter timeouts) buys attempts.
func TestLossModelSchedule(t *testing.T) {
	wantLens := map[float64]int{0.5: 5, 1: 4, 2: 3, 4: 2}
	prev := 0
	for _, timeout := range []float64{4, 2, 1, 0.5} {
		lm := NewLossModel(lossCfg(t, Config{WakeLoss: 0.1, RetryTimeoutSeconds: timeout}), nil, 1)
		sched := lm.Schedule()
		if len(sched) != wantLens[timeout] {
			t.Fatalf("timeout %v: schedule %v has %d attempts, want %d", timeout, sched, len(sched), wantLens[timeout])
		}
		if len(sched) <= prev {
			t.Fatalf("timeout %v: %d attempts not above the slower timeout's %d", timeout, len(sched), prev)
		}
		prev = len(sched)
		if sched[0] != 0 {
			t.Fatalf("timeout %v: first attempt delayed by %v", timeout, sched[0])
		}
		for k := 1; k < len(sched); k++ {
			if sched[k] <= sched[k-1] {
				t.Fatalf("timeout %v: schedule %v not strictly increasing", timeout, sched)
			}
			if sched[k] >= lm.Config().GiveUpSilenceSeconds {
				t.Fatalf("timeout %v: attempt %d at %v not below give-up %v",
					timeout, k, sched[k], lm.Config().GiveUpSilenceSeconds)
			}
		}
	}
	// MaxAttempts caps the schedule even when the give-up silence would
	// admit more retransmissions.
	lm := NewLossModel(lossCfg(t, Config{WakeLoss: 0.1, RetryTimeoutSeconds: 0.5, MaxAttempts: 2}), nil, 1)
	if got := len(lm.Schedule()); got != 2 {
		t.Fatalf("MaxAttempts 2 produced %d attempts", got)
	}
	// Schedule returns a copy: mutating it must not corrupt the model.
	s := lm.Schedule()
	s[0] = 99
	if lm.Schedule()[0] != 0 {
		t.Fatal("Schedule exposed internal state")
	}
}

func TestLossExtremes(t *testing.T) {
	const hosts = 64
	zero := NewLossModel(lossCfg(t, Config{WakeLoss: 0}), nil, hosts)
	one := NewLossModel(lossCfg(t, Config{WakeLoss: 1}), nil, hosts)
	for mac := 0; mac < hosts; mac++ {
		for round := 0; round < 10; round++ {
			if out := zero.Resolve(MAC(mac)); !out.Delivered || out.Attempts != 1 || out.DelaySeconds != 0 || out.Relayed {
				t.Fatalf("loss 0, mac %d: %+v", mac, out)
			}
			out := one.Resolve(MAC(mac))
			if out.Delivered || out.Relayed {
				t.Fatalf("loss 1, mac %d delivered: %+v", mac, out)
			}
			if out.Attempts != len(one.Schedule()) {
				t.Fatalf("loss 1, mac %d: %d attempts, want full schedule %d", mac, out.Attempts, len(one.Schedule()))
			}
			if out.DelaySeconds != one.Config().GiveUpSilenceSeconds {
				t.Fatalf("loss 1, mac %d: delay %v, want give-up %v",
					mac, out.DelaySeconds, one.Config().GiveUpSilenceSeconds)
			}
		}
	}
}

// Same (seed, topology, loss) ⇒ bit-identical outcome sequences,
// regardless of how transactions interleave across hosts.
func TestLossDeterminism(t *testing.T) {
	cfg := lossCfg(t, Config{WakeLoss: 0.3, Seed: 0xfeed})
	subnets := []int{0, 0, 1, 1, 2, 2, 0, 1}
	play := func(order []MAC) []WakeOutcome {
		lm := NewLossModel(cfg, subnets, 8)
		outs := make([]WakeOutcome, 0, len(order))
		for _, mac := range order {
			outs = append(outs, lm.Resolve(mac))
		}
		return outs
	}
	seq := []MAC{0, 1, 2, 3, 4, 5, 6, 7, 0, 3, 5, 1, 7, 2}
	a := play(seq)
	b := play(seq)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same order diverged:\n%v\n%v", a, b)
	}
	// Per-host subsequences are independent of global interleaving: play
	// the same per-host transaction counts in a different global order
	// and compare host-by-host.
	shuffled := []MAC{7, 2, 0, 5, 3, 1, 4, 6, 3, 0, 1, 5, 2, 7}
	c := play(shuffled)
	byHost := func(order []MAC, outs []WakeOutcome) map[MAC][]WakeOutcome {
		m := map[MAC][]WakeOutcome{}
		for i, mac := range order {
			m[mac] = append(m[mac], outs[i])
		}
		return m
	}
	if !reflect.DeepEqual(byHost(seq, a), byHost(shuffled, c)) {
		t.Fatal("per-host outcome sequences depend on global interleaving")
	}
	// A different seed must change the schedule (overwhelmingly likely
	// over 14 transactions at loss 0.3).
	other := cfg
	other.Seed = 0xbeef
	lm := NewLossModel(other, subnets, 8)
	d := make([]WakeOutcome, 0, len(seq))
	for _, mac := range seq {
		d = append(d, lm.Resolve(mac))
	}
	if reflect.DeepEqual(a, d) {
		t.Fatal("distinct seeds produced identical drop schedules")
	}
}

// TestLossSerialsRoundTrip: restoring a model's attempt serials into a
// fresh one continues the same drop schedule, and a serial vector from
// another fleet size is refused.
func TestLossSerialsRoundTrip(t *testing.T) {
	cfg := lossCfg(t, Config{WakeLoss: 0.4, Seed: 7})
	a := NewLossModel(cfg, nil, 4)
	for _, mac := range []MAC{0, 2, 2, 3, 0} {
		a.Resolve(mac)
	}
	b := NewLossModel(cfg, nil, 4)
	if err := b.RestoreSerials(a.Serials()); err != nil {
		t.Fatal(err)
	}
	for _, mac := range []MAC{2, 1, 0, 3, 2} {
		if ra, rb := a.Resolve(mac), b.Resolve(mac); ra != rb {
			t.Fatalf("host %d: restored model resolved %+v, original %+v", mac, rb, ra)
		}
	}
	if err := b.RestoreSerials(make([]uint64, 5)); err == nil {
		t.Fatal("restoring 5 serials into a 4-host model must fail")
	}
}

// Drop sets nest as loss grows: with single-attempt configs (which keep
// per-host serials aligned across loss rates), every transaction
// delivered at loss p is delivered at every p' < p.
func TestLossNesting(t *testing.T) {
	grid := []float64{0, 0.01, 0.05, 0.2, 0.6, 1}
	const hosts, rounds = 32, 50
	delivered := make([][]bool, len(grid))
	for gi, loss := range grid {
		lm := NewLossModel(lossCfg(t, Config{WakeLoss: loss, MaxAttempts: 1, Seed: 42}), nil, hosts)
		for r := 0; r < rounds; r++ {
			for mac := 0; mac < hosts; mac++ {
				delivered[gi] = append(delivered[gi], lm.Resolve(MAC(mac)).Delivered)
			}
		}
	}
	for gi := 1; gi < len(grid); gi++ {
		for i, ok := range delivered[gi] {
			if ok && !delivered[gi-1][i] {
				t.Fatalf("transaction %d delivered at loss %v but dropped at %v",
					i, grid[gi], grid[gi-1])
			}
		}
	}
	count := func(v []bool) int {
		n := 0
		for _, ok := range v {
			if ok {
				n++
			}
		}
		return n
	}
	if count(delivered[0]) != hosts*rounds || count(delivered[len(grid)-1]) != 0 {
		t.Fatalf("extremes wrong: loss 0 delivered %d/%d, loss 1 delivered %d",
			count(delivered[0]), hosts*rounds, count(delivered[len(grid)-1]))
	}
}

func TestLossRelay(t *testing.T) {
	cfg := lossCfg(t, Config{WakeLoss: 1, RelaySubnets: []int{1}})
	subnets := []int{0, 1, 1, 0}
	lm := NewLossModel(cfg, subnets, 4)
	if lm.Subnet(0) != 0 || lm.Subnet(1) != 1 {
		t.Fatal("Subnet mapping wrong")
	}
	if lm.Relayed(0) || !lm.Relayed(1) || !lm.Relayed(2) || lm.Relayed(3) {
		t.Fatal("Relayed mapping wrong")
	}
	for round := 0; round < 5; round++ {
		for _, mac := range []MAC{1, 2} {
			out := lm.Resolve(mac)
			if !out.Delivered || !out.Relayed || out.Attempts != 1 || out.DelaySeconds != 0 {
				t.Fatalf("relayed subnet at loss 1: %+v", out)
			}
		}
		for _, mac := range []MAC{0, 3} {
			if out := lm.Resolve(mac); out.Delivered {
				t.Fatalf("broadcast subnet at loss 1 delivered: %+v", out)
			}
		}
	}
	// Relaying one subnet must not shift the drop schedule of hosts in
	// other subnets: the relay consumes serials at the same rate.
	// MaxAttempts=1 on both models keeps every Resolve consuming exactly
	// one serial, so the comparison is attempt-aligned.
	withRelay := NewLossModel(lossCfg(t,
		Config{WakeLoss: 0.5, Seed: 7, MaxAttempts: 1, RelaySubnets: []int{1}}), subnets, 4)
	noRelay := NewLossModel(lossCfg(t,
		Config{WakeLoss: 0.5, Seed: 7, MaxAttempts: 1}), subnets, 4)
	for round := 0; round < 20; round++ {
		for mac := MAC(0); mac < 4; mac++ {
			a, b := withRelay.Resolve(mac), noRelay.Resolve(mac)
			if lm.Relayed(mac) {
				continue
			}
			if a.Delivered != b.Delivered {
				t.Fatalf("mac %d round %d: relay elsewhere changed drop fate (%+v vs %+v)", mac, round, a, b)
			}
		}
	}
	// A relay subnet index beyond the topology's max is still honored.
	wide := NewLossModel(lossCfg(t, Config{WakeLoss: 1, RelaySubnets: []int{5}}), []int{5, 0}, 2)
	if !wide.Relayed(0) || wide.Relayed(1) {
		t.Fatal("out-of-range relay subnet index not honored")
	}
}

func TestLossModelNilTopology(t *testing.T) {
	lm := NewLossModel(lossCfg(t, Config{WakeLoss: 0.5}), nil, 3)
	if lm.Subnet(2) != 0 {
		t.Fatal("nil topology should put every host in domain 0")
	}
	if lm.Relayed(2) {
		t.Fatal("nil topology host relayed without a relay subnet")
	}
	relayed := NewLossModel(lossCfg(t, Config{WakeLoss: 1, RelaySubnets: []int{0}}), nil, 3)
	if out := relayed.Resolve(1); !out.Relayed {
		t.Fatal("domain-0 relay not applied under nil topology")
	}
}
