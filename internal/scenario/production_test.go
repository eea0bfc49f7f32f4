package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// productionDigests pins the SHA-256 of every family's report with a
// single production-mode Drowsy-DC column (Rebalance triggered by
// Neat's overload/underload detection, plus the opportunistic 7σ pass)
// at the scale of productionParams. The registered families compare
// the full-relocation mode, so no golden fixture covers this path.
// The digests were computed with a linear scan for each destination
// host, the reference internal/drowsy's index tests compare against;
// a change to them means production placements changed.
var productionDigests = map[string]string{
	"always-on-mix":     "138e9829f185ff6ab89fdb44245b5b7f6c3c59ce2f6fee101118be4540fa7898",
	"bursty-batch":      "499cf23d0f4c9d6af56617cfad170a7a52edacc13896268985310604d0ae9599",
	"diurnal-office":    "f0eca4867ace1eb59ad787bcbba59da01f01b4c7485dab4420f007f034caba63",
	"flash-crowd":       "19bb96be7df49d0770091631063b2f8665931c792ef27642f0887d56a074d25c",
	"hetero-fleet-year": "01ddb7bde5a3a8346b37617e92b16699367fc2de080ba1037dfcd7947f651c13",
	"interactive-web":   "b174540269f9497b8f980baf43eb6e4b653f864d019a9dd08b92c010e58ff4c9",
	"lossy-wan":         "4c13d923bc5c89d6720489263b9ef2140e2615e09b24116f66e6ca9444644f99",
	"seasonal-web":      "b776c8774f751a9114658b488f0d34ade63415ff5e1a53df016611e5a88e5a88",
	"vm-churn":          "84a48d6e8c7bc9e3774f7df7dc75c3db1a0489aad281ef63a18f096a9d0ed1dd",
}

// productionParams keeps every family small: 64 hosts, two weeks
// (vm-churn keeps its month), serial host shards.
func productionParams(f Family) Params {
	p := Params{Hosts: 64, HorizonHours: 14 * 24, ShardWorkers: 1}
	if f.Name == "vm-churn" {
		p.HorizonHours = 0 // the family's churn schedule sets its horizon
	}
	return p
}

func TestProductionDrowsyReportsPinned(t *testing.T) {
	for _, f := range Families() {
		t.Run(f.Name, func(t *testing.T) {
			sc, err := BuildFamily(f.Name, productionParams(f))
			if err != nil {
				t.Fatal(err)
			}
			sc.Policies = []PolicyConfig{{Label: "drowsy", Policy: "drowsy", Suspend: true, Grace: true}}
			rep, err := Run(sc, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := rep.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
			got := hex.EncodeToString(h.Sum(nil))
			want, ok := productionDigests[f.Name]
			if !ok {
				t.Fatalf("no pinned digest for family %s (report digest %s)", f.Name, got)
			}
			if got != want {
				t.Errorf("report digest %s, pinned %s", got, want)
			}
		})
	}
}
