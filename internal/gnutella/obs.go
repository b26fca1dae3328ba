package gnutella

import "ace/internal/obs"

// Flood-kernel instrumentation (ace.gnutella.<name>). The per-message
// hot loop is left untouched: every total below already accumulates in
// the kernel's plain per-query fields, so one ObserveFlood call per
// drained flood folds them into the registry — no atomic traffic inside
// the sift/emit paths even when observability is enabled.
var (
	cFloods     = obs.NewCounter("ace.gnutella.floods")
	cSends      = obs.NewCounter("ace.gnutella.sends")
	cDuplicates = obs.NewCounter("ace.gnutella.duplicates")
	cHeapPushes = obs.NewCounter("ace.gnutella.heap.pushes")
	cHeapWiden  = obs.NewCounter("ace.gnutella.heap.widen")
	hScope      = obs.NewHistogram("ace.gnutella.scope")
	hSends      = obs.NewHistogram("ace.gnutella.flood.sends")

	// Copies Emit counted at send time instead of queueing them; per
	// flood, heap.pushes + settled + lost = sends.
	cSettled = obs.NewCounter("ace.gnutella.settled")

	// Fault effects on floods: messages the plan lost in transit and
	// deliveries dropped because the target had crashed.
	cMsgLost     = obs.NewCounter("ace.fault.msg.lost")
	cDeadLetters = obs.NewCounter("ace.fault.msg.dead_letters")
)

// ObserveFlood folds the drained flood's totals into the registry.
// Evaluators call it once per query, after the event queue empties and
// before results are read out; external kernel drivers may call it too.
func (k *Kernel) ObserveFlood() {
	if !obs.Enabled() {
		return
	}
	cFloods.Inc()
	cSends.Add(uint64(k.transmissions))
	cDuplicates.Add(uint64(k.duplicates))
	cHeapPushes.Add(uint64(k.seq))
	cSettled.Add(uint64(k.settled))
	if k.wide {
		cHeapWiden.Inc()
	}
	hScope.Observe(uint64(k.scope))
	hSends.Observe(uint64(k.transmissions))
	cMsgLost.Add(uint64(k.lost))
	cDeadLetters.Add(uint64(k.deadLetters))
}
