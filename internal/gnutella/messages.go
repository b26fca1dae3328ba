// Package gnutella implements the flooding-based search substrate of the
// paper: TTL-bounded query floods with per-query duplicate suppression,
// blind flooding (§3.1), the ACE tree multicast (§3.3–3.4) behind the
// same core.Forwarder seam, and inverse-path query responses.
//
// Every query flood runs on one engine, the pooled Kernel: a timed
// propagation in (arrival time, send order) over epoch-stamped per-peer
// state. Evaluate and EvaluateTrace drive it for the sweeps, the
// walkthroughs and the dynamic-churn runs; ExpandingRing repeats
// Evaluate at growing TTLs; HybridPeriodicalFlood and the index cache in
// internal/cache drive the same loop with their own forwarding and
// delivery rules. RandomWalk is the one search that does not flood.
package gnutella

// DefaultTTL is Gnutella's customary time-to-live of 7.
const DefaultTTL = 7
