package scenario

import (
	"testing"

	"drowsydc/internal/checkpoint"
)

// TestSuspendChecksNeverVeto pins that the runtime's suspension checks
// never veto. maybeSuspendUntil checks at the later of the idle instant
// and the grace bound, so the grace veto cannot fire; and the runtime
// checks only idle hours and idle gaps, so its hosts always report
// idle and the busy veto cannot fire either. Every family runs at 16
// hosts for 10 days, at hourly and at event resolution, and each cell's
// checkpoint at hour H−1 carries its hosts' monitor counters. A host stays awake
// only through maybeSuspendUntil's two early returns (the grace period
// reaches past the next activity; the transition cannot finish before
// it), which nothing counts.
func TestSuspendChecksNeverVeto(t *testing.T) {
	const hours = 10 * 24
	for _, f := range Families() {
		for _, res := range []string{"hourly", "event"} {
			t.Run(f.Name+"/"+res, func(t *testing.T) {
				p := Params{Hosts: 16, HorizonHours: hours, Resolution: res}
				sc, err := BuildFamily(f.Name, p)
				if err != nil {
					t.Fatal(err)
				}
				cols := sc.policies()
				_, blobs := captureBlobs(t, f.Name, p, hours-1, Options{})
				if len(blobs) != len(cols) {
					t.Fatalf("captured %d checkpoints, want one per column (%d)", len(blobs), len(cols))
				}
				for key, blob := range blobs {
					st, err := checkpoint.Decode(blob)
					if err != nil {
						t.Fatal(err)
					}
					var checks, grace, busy uint64
					for _, h := range st.Hosts {
						checks += h.Decisions
						grace += h.VetoGrace
						busy += h.VetoBusy
					}
					pc := cols[key[0]]
					if grace != 0 || busy != 0 {
						t.Errorf("%s: %d checks vetoed %d times on grace and %d on busy; want none",
							pc.Label, checks, grace, busy)
					}
					if pc.Suspend && checks == 0 {
						t.Errorf("%s: a suspend-enabled column made no suspension check", pc.Label)
					}
				}
			})
		}
	}
}
