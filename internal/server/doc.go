// Package server is drowsyd's HTTP+JSON service layer: a long-running
// daemon serving concurrent scenario run, sweep and catalog requests
// over the same deterministic simulation substrate the drowsyctl CLI
// drives in batch.
//
// The layering, bottom up:
//
//   - a bounded job pool (pool.go) — the serving-side counterpart of
//     par.Map's bounded fan-out: at most Workers simulations run at
//     once, excess jobs queue;
//   - a single-flight result cache (cache.go) keyed by the canonical
//     spec hash (family, params, tuning, sweep axis, resolution,
//     network fabric, code version): N concurrent identical requests
//     run one simulation and all read its bytes, repeated requests are
//     served from memory without re-simulating;
//   - a server-lifetime immutable trace store (scenario.StoreCache,
//     wired via scenario.Options.Stores): all requests that materialize
//     the same workload structure share one trace/timeline memo, the
//     per-run sharing of PRs 2–5 promoted across requests;
//   - HTTP handlers (server.go) whose run/sweep response bodies are
//     byte-identical to `drowsyctl scenario run|sweep` JSON — the CLI's
//     golden fixtures double as the API contract — plus chunked
//     JSON progress streaming for long sweeps, catalog endpoints and a
//     stats endpoint surfacing the cache counters.
//
// Request validation reuses the scenario package's validation
// (scenario.BuildFamily + Scenario.Validate), so the error text in the
// HTTP error envelope is the same field-naming text the CLI prints.
//
// Everything served is byte-reproducible: a cache hit is
// indistinguishable from a fresh simulation, which is what makes
// serving at interactive latency sound.
package server
