package bench

import (
	_ "embed"
	"encoding/json"
	"sync"
)

// digestsJSON pins the SHA-256 of every seed-1 report: per workload, one
// digest per round in round order (drowsyd-mix: one per round over
// every spec's report). Rewrite it with `go test -run TestDigests
// -update` from the bench directory.
//
//go:embed testdata/digests_seed1.json
var digestsJSON []byte

// digestsPath is the pinned digests file, relative to the bench module.
const digestsPath = "testdata/digests_seed1.json"

// pinnedRounds is how many seed-1 rounds of each workload are pinned:
// more than one run_seconds window reaches on a 2-vCPU host.
var pinnedRounds = map[string]int{
	"fleet-hourly": 20,
	"hetero-year":  16,
	"event-lossy":  16,
	"drowsyd-mix":  10,
}

var pinnedDigests = sync.OnceValue(func() map[string][]string {
	m := map[string][]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("bench: malformed " + digestsPath + ": " + err.Error()) // embedded at build time
	}
	return m
})
