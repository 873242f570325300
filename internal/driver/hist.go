// Package driver is the end-to-end benchmark harness: it drives a
// cluster.Coordinator with concurrent closed-loop clients executing
// transactions drawn from deterministic per-client streams, and reports
// throughput, latency percentiles, distributed-transaction and abort
// rates, and per-node load imbalance. This is the measurement surface
// behind the paper's headline claim: fewer distributed transactions
// means higher TPS (§3, §6.3).
package driver

import "schism/internal/obs"

// The HDR histogram lives in internal/obs since the observability layer
// landed; these aliases keep the driver's public surface (and its
// benchmarks) unchanged.

// Hist is a concurrent log-linear latency histogram (see obs.Hist).
type Hist = obs.Hist

// Sharded is a set of per-client histograms (see obs.Sharded).
type Sharded = obs.Sharded

// NewSharded allocates n histogram shards (minimum 1).
func NewSharded(n int) *Sharded { return obs.NewSharded(n) }
