package cacq

import "telegraphcq/internal/arrange"

// ArrangedConfig says where an engine's SteMs store their rows and how it
// numbers its queries.
type ArrangedConfig struct {
	// Provider returns the arrangement storing the values of the stream
	// opts.Name, built with opts. The provider decides sharing scope (the
	// core engine keys on shared-class + stream + shard); asking twice
	// for the same backing state must return the same *Arrangement.
	Provider func(opts arrange.Options) *arrange.Arrangement
	// ReuseSlots reallocates the lineage-slot IDs of removed queries
	// (after scrubbing their bits from stored state) so bitmaps stay
	// dense under churn. Only sound on a sequential engine: its step is
	// fully synchronous, so no in-flight tuple can carry a freed slot's
	// bit. Parallel engines force it off — merged outputs keep flowing
	// through a barrier, and monotone IDs keep front/shard lockstep.
	ReuseSlots bool
}

// privateArrangement is New's provider: a fresh arrangement per SteM, in no
// registry, read through this engine's cursor alone.
func privateArrangement(opts arrange.Options) *arrange.Arrangement { return arrange.New(opts) }

// trackArrangement records a (deduplicated) arrangement this engine reads,
// opening the engine's cursor on it.
func (e *Engine) trackArrangement(a *arrange.Arrangement) {
	for _, have := range e.arrs {
		if have == a {
			return
		}
	}
	e.arrs = append(e.arrs, a)
	e.cursors = append(e.cursors, a.NewCursor())
}

// allocSlot hands out a lineage-slot ID: a scrubbed free slot when one
// exists; else, if removed queries are cooling, scrub their bits from every
// arrangement in one batched pass, promote, and retry; else a fresh ID —
// always a fresh one without ReuseSlots, where nothing is ever freed.
// Purely driven by allocator state, so the same mutation sequence yields
// the same IDs regardless of timing.
func (e *Engine) allocSlot() int {
	if id, ok := e.slots.Alloc(); ok {
		return id
	}
	if e.slots.Cooling() > 0 {
		mask := e.slots.CoolingMask()
		for _, a := range e.arrs {
			a.ScrubLineage(mask)
		}
		e.slots.Promote()
		if id, ok := e.slots.Alloc(); ok {
			return id
		}
	}
	return e.slots.Fresh()
}

// AdvanceEpoch seals the current epoch on every arrangement this engine
// writes and syncs the engine's cursors past it, releasing retired state
// for reclamation. Call once per engine step; safe concurrently with
// probes (arrangements are internally locked).
func (e *Engine) AdvanceEpoch() {
	for _, a := range e.arrs {
		a.Advance()
	}
	for _, c := range e.cursors {
		c.Sync()
	}
}

// SlotHighWater returns the number of lineage-slot IDs ever minted — with
// ReuseSlots this stays near the live query count under churn instead of
// growing monotonically.
func (e *Engine) SlotHighWater() int { return e.slots.High() }
