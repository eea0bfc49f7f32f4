package scenario

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"drowsydc/internal/simtime"
)

// lossyWan builds the lossy-wan family at test scale.
func lossyWan(hosts, days int) Scenario {
	f, ok := Lookup("lossy-wan")
	if !ok {
		panic("lossy-wan family not registered")
	}
	return f.Build(Params{Hosts: hosts, HorizonHours: days * simtime.HoursPerDay})
}

// drowsyOnly trims the comparison to the paper's policy: monotonicity
// and dominance are properties of one column, and the other three
// triple the runtime without sharpening the assertion.
func drowsyOnly(sc *Scenario) {
	sc.Policies = []PolicyConfig{
		{Label: "drowsy", Policy: "drowsy-full", Suspend: true, Grace: true},
	}
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLossyWanDeterminism: the drop schedule is keyed on (seed, MAC,
// attempt), not on execution order — the same lossy scenario must
// produce byte-identical reports at every shard-worker count and with
// shared or private trace stores.
func TestLossyWanDeterminism(t *testing.T) {
	base := lossyWan(6, 3)
	want, err := Run(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.WakeModel != "lossy" {
		t.Fatalf("wake model %q, want lossy", want.WakeModel)
	}
	wantJSON := reportJSON(t, want)
	for _, workers := range []int{1, 2, 8} {
		sc := lossyWan(6, 3)
		sc.Tuning.ShardWorkers = workers
		for _, private := range []bool{false, true} {
			got, err := Run(sc, Options{private: private})
			if err != nil {
				t.Fatalf("shard-workers %d private %v: %v", workers, private, err)
			}
			if !bytes.Equal(wantJSON, reportJSON(t, got)) {
				t.Fatalf("shard-workers %d private %v: report diverged", workers, private)
			}
		}
	}
}

// TestWakeLossMonotonicity traces the degradation curve the family
// exists for: as the drop probability grows, drowsy's energy and its
// lost-wake SLA seconds must not improve, and the curve must genuinely
// rise end to end.
func TestWakeLossMonotonicity(t *testing.T) {
	sc := lossyWan(6, 3)
	drowsyOnly(&sc)
	sc.Sweep = Sweep{Param: "wake-loss", Values: []float64{0, 0.01, 0.05, 0.2}}
	rep, err := RunSweep(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 4 {
		t.Fatalf("%d points, want 4", len(rep.Points))
	}
	for i := 1; i < len(rep.Points); i++ {
		prev, cur := rep.Points[i-1].Report.Policies[0], rep.Points[i].Report.Policies[0]
		if cur.EnergyKWh < prev.EnergyKWh {
			t.Errorf("energy fell %v -> %v between wake-loss %v and %v",
				prev.EnergyKWh, cur.EnergyKWh, rep.Points[i-1].Value, rep.Points[i].Value)
		}
		if cur.LostWakeSLASeconds < prev.LostWakeSLASeconds {
			t.Errorf("lost-wake SLA fell %v -> %v between wake-loss %v and %v",
				prev.LostWakeSLASeconds, cur.LostWakeSLASeconds,
				rep.Points[i-1].Value, rep.Points[i].Value)
		}
	}
	first, last := rep.Points[0].Report.Policies[0], rep.Points[3].Report.Policies[0]
	if first.LostWakeSLASeconds != 0 || first.WakeRetries != 0 {
		t.Fatalf("zero loss accrued wake damage: %+v", first)
	}
	if last.LostWakeSLASeconds <= first.LostWakeSLASeconds || last.EnergyKWh <= first.EnergyKWh {
		t.Fatalf("axis is flat: loss 0 %+v vs loss 0.2 %+v", first, last)
	}
}

// TestRetryTimeoutMonotonicity: a shorter retransmission timeout fits
// more attempts before the give-up silence, so at a fixed (high) loss
// the retry count must fall strictly as the timeout grows.
func TestRetryTimeoutMonotonicity(t *testing.T) {
	sc := lossyWan(6, 3)
	drowsyOnly(&sc)
	// The family's 10% loss leaves the expected retry deltas in the
	// noise; 40% separates the timeout grid decisively.
	sc.Network.WakeLoss = 0.4
	sc.Sweep = Sweep{Param: "retry-timeout", Values: []float64{0.5, 1, 2, 4}}
	rep, err := RunSweep(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rep.Points); i++ {
		prev, cur := rep.Points[i-1].Report.Policies[0], rep.Points[i].Report.Policies[0]
		if cur.WakeRetries >= prev.WakeRetries {
			t.Errorf("retries %d -> %d between retry-timeout %v and %v (want strictly fewer)",
				prev.WakeRetries, cur.WakeRetries,
				rep.Points[i-1].Value, rep.Points[i].Value)
		}
	}
}

// TestRelayDominance: equipping every broadcast domain with a WoL relay
// converts all wakes to reliable unicast — no retries, no delayed
// resumes — so at equal loss the relayed fleet strictly dominates the
// unrelayed one on lost-wake SLA.
func TestRelayDominance(t *testing.T) {
	run := func(relay bool) PolicyResult {
		sc := lossyWan(6, 3)
		drowsyOnly(&sc)
		for i := range sc.Network.Subnets {
			sc.Network.Subnets[i].Relay = relay
		}
		rep, err := Run(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Policies[0]
	}
	relayed, bare := run(true), run(false)
	if relayed.WakeRetries != 0 || relayed.LostWakes != 0 || relayed.LostWakeSLASeconds != 0 {
		t.Fatalf("relayed fleet still suffered delivery damage: %+v", relayed)
	}
	if relayed.RelayedWakes == 0 {
		t.Fatal("relayed fleet relayed nothing")
	}
	if bare.WakeRetries == 0 || bare.LostWakeSLASeconds <= 0 {
		t.Fatalf("unrelayed fleet at 10%% loss shows no damage: %+v", bare)
	}
	if relayed.LostWakeSLASeconds >= bare.LostWakeSLASeconds {
		t.Fatalf("relay does not dominate: relayed SLA %v vs bare %v",
			relayed.LostWakeSLASeconds, bare.LostWakeSLASeconds)
	}
}

// TestNetworkValidation: every malformed fabric declaration is rejected
// with an error naming the offending field.
func TestNetworkValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(n *Network)
		wantErr string
	}{
		{"loss above one", func(n *Network) { n.WakeLoss = 1.5 }, "wake-loss"},
		{"negative loss", func(n *Network) { n.WakeLoss = -0.1 }, "wake-loss"},
		{"NaN loss", func(n *Network) { n.WakeLoss = math.NaN() }, "wake-loss"},
		{"negative timeout", func(n *Network) { n.RetryTimeoutSeconds = -1 }, "retry-timeout"},
		{"NaN timeout", func(n *Network) { n.RetryTimeoutSeconds = math.NaN() }, "retry-timeout"},
		{"backoff below one", func(n *Network) { n.RetryBackoff = 0.5 }, "retry-backoff"},
		{"negative attempts", func(n *Network) { n.MaxAttempts = -1 }, "max-attempts"},
		{"negative give-up", func(n *Network) { n.GiveUpSilenceSeconds = -1 }, "give-up-silence"},
		{"unnamed subnet", func(n *Network) {
			n.Subnets = append(n.Subnets, Subnet{Classes: []string{"edge"}})
		}, "has no name"},
		{"duplicate subnet", func(n *Network) {
			n.Subnets = append(n.Subnets, Subnet{Name: "edge", Classes: []string{"edge"}})
		}, "duplicate network subnet"},
		{"empty subnet", func(n *Network) {
			n.Subnets = []Subnet{{Name: "hollow"}}
		}, "lists no host classes"},
		{"unknown class", func(n *Network) {
			n.Subnets = []Subnet{{Name: "ghost", Classes: []string{"mainframe"}}}
		}, "unknown host class"},
		{"class in two subnets", func(n *Network) {
			n.Subnets = []Subnet{
				{Name: "a", Classes: []string{"edge"}},
				{Name: "b", Classes: []string{"edge"}},
			}
		}, "two network subnets"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := lossyWan(6, 3)
			tc.mutate(sc.Network)
			err := sc.Validate()
			if err == nil {
				t.Fatalf("invalid network accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offence %q", err, tc.wantErr)
			}
		})
	}
	// The untouched family must, of course, validate.
	if err := lossyWan(6, 3).Validate(); err != nil {
		t.Fatalf("pristine lossy-wan invalid: %v", err)
	}
}

// TestNetworkSweepPointIsolation: sweep points copy the Scenario by
// value but share the Network pointer; Apply must copy-on-write so one
// point's swept loss never leaks into its siblings or the original.
func TestNetworkSweepPointIsolation(t *testing.T) {
	sc := lossyWan(6, 3)
	sc.Sweep = Sweep{Param: "wake-loss", Values: []float64{0.2, 0.8}}
	a := sc.At(0)
	b := sc.At(1)
	if a.Network.WakeLoss != 0.2 || b.Network.WakeLoss != 0.8 {
		t.Fatalf("points carry losses %v and %v, want 0.2 and 0.8",
			a.Network.WakeLoss, b.Network.WakeLoss)
	}
	if sc.Network.WakeLoss != 0.1 {
		t.Fatalf("sweep application corrupted the original scenario: loss %v", sc.Network.WakeLoss)
	}
}

// TestNetworkSweepOnFlatScenario: sweeping wake-loss over a family with
// no declared Network conjures a default (flat-topology) fabric per
// point rather than erroring — any family can sweep any knob.
func TestNetworkSweepOnFlatScenario(t *testing.T) {
	sc := small("diurnal-office")
	drowsyOnly(&sc)
	sc.HorizonHours = 2 * simtime.HoursPerDay
	sc.Sweep = Sweep{Param: "wake-loss", Values: []float64{0.3}}
	rep, err := RunSweep(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr := rep.Points[0].Report.Policies[0]
	if rep.Points[0].Report.WakeModel != "lossy" {
		t.Fatalf("swept point not lossy: %+v", rep.Points[0].Report)
	}
	if pr.WakeAttempts == 0 {
		t.Fatalf("swept fabric saw no wake traffic: %+v", pr)
	}
	if sc.Network != nil {
		t.Fatal("sweeping wake-loss mutated the base scenario's Network")
	}
}

// FuzzWakeLossGrid fuzzes the sweep-value parser against the wake-loss
// parameter's range check: whatever the input, parsing either fails
// cleanly or yields finite values, and every value the parameter check
// accepts is a valid probability.
func FuzzWakeLossGrid(f *testing.F) {
	for _, seed := range []string{
		"0,0.01,0.05,0.2", "0, 1", "1e-3", "-0", "0.5",
		"", ",", "0,,1", "NaN", "Inf", "-Inf", "1e309", "0x1p-2",
		"0.1,0.1", "2", "-1", "0.2,0.1", "âˆž", "1;2",
	} {
		f.Add(seed)
	}
	p, ok := LookupParam("wake-loss")
	if !ok {
		f.Fatal("wake-loss not registered")
	}
	f.Fuzz(func(t *testing.T, s string) {
		vals, err := ParseValues(s)
		if err != nil {
			if len(vals) != 0 {
				t.Fatalf("ParseValues(%q) returned values alongside error %v", s, err)
			}
			return
		}
		if len(vals) == 0 {
			t.Fatalf("ParseValues(%q) returned no values and no error", s)
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ParseValues(%q) let a non-finite value through: %v", s, v)
			}
			if p.Check(v) == nil && (v < 0 || v > 1) {
				t.Fatalf("wake-loss check accepted %v outside [0, 1]", v)
			}
		}
		// A parsed grid that also passes per-value checks must be usable
		// as a sweep axis or be rejected for a stated structural reason
		// (ordering), never crash downstream validation.
		sc := lossyWan(6, 3)
		sc.Sweep = Sweep{Param: "wake-loss", Values: vals}
		if err := sc.Validate(); err != nil {
			msg := err.Error()
			if !strings.Contains(msg, "strictly increasing") && !strings.Contains(msg, "wake-loss") {
				t.Fatalf("grid %v rejected for an unnamed reason: %v", vals, err)
			}
		}
	})
}
