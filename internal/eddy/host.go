package eddy

import (
	"math/bits"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/tuple"
)

// This file is the eddy control plane: how an eddy host — one Eddy run
// inline by its caller, or a ParallelEddy's hash-partitioned shards — is
// observed. Both offer Stats, ModuleNames, ModuleProbeNanos, SetProbeTimer
// and PolicyInfo, so a private query and a shared CACQ class, at one worker
// or many, are driven through one contract. An Eddy's methods are
// unsynchronized like the rest of its API; a ParallelEddy's quiesce the
// shards under a Barrier.

// Add accumulates o into s, folding shard eddies into one logical eddy's
// Stats: every shard builds the same module list, so per-module counters
// and lottery tickets sum index-wise.
func (s *Stats) Add(o Stats) {
	s.Ingested += o.Ingested
	s.Emitted += o.Emitted
	s.Dropped += o.Dropped
	s.Decisions += o.Decisions
	s.Visits += o.Visits
	s.Runs += o.Runs
	s.Splits += o.Splits
	s.Orders += o.Orders
	s.OrderReuses += o.OrderReuses
	s.NWayPruned += o.NWayPruned
	if s.Modules == nil {
		s.Modules = make([]ModuleStats, len(o.Modules))
	}
	for i, m := range o.Modules {
		s.Modules[i].Visits += m.Visits
		s.Modules[i].Passed += m.Passed
		s.Modules[i].Produced += m.Produced
	}
	if o.Tickets != nil {
		if s.Tickets == nil {
			s.Tickets = make([]int64, len(o.Tickets))
		}
		for i, tk := range o.Tickets {
			s.Tickets[i] += tk
		}
	}
}

// probeTimed is any module offering sampled probe latency measurement
// (grouped filters and SteM modules).
type probeTimed interface {
	SetProbeTimer(clk chaos.Clock, every int)
	ProbeNanos() int64
}

// ModuleNames returns the module names in Stats order (the module set is
// fixed at construction).
func (e *Eddy) ModuleNames() []string {
	names := make([]string, len(e.modules))
	for i, m := range e.modules {
		names[i] = m.Name()
	}
	return names
}

// ModuleProbeNanos returns each module's sampled probe latency EWMA in
// Stats order (0 for modules without probe timing).
func (e *Eddy) ModuleProbeNanos() []int64 {
	out := make([]int64, len(e.modules))
	for i, m := range e.modules {
		if pt, ok := m.(probeTimed); ok {
			out[i] = pt.ProbeNanos()
		}
	}
	return out
}

// SetProbeTimer enables sampled probe/filter latency measurement on every
// module that supports it (see stem.SteM.SetProbeTimer).
func (e *Eddy) SetProbeTimer(clk chaos.Clock, every int) {
	for _, m := range e.modules {
		if pt, ok := m.(probeTimed); ok {
			pt.SetProbeTimer(clk, every)
		}
	}
}

// Eddy makes *Eddy a Shard: it is its own eddy.
func (e *Eddy) Eddy() *Eddy { return e }

// Stats sums the shard eddies' counters (a barrier snapshot): the same
// shape of telemetry as a single eddy.
func (pe *ParallelEddy) Stats() Stats {
	var agg Stats
	pe.Barrier(func(_ int, s Shard) { agg.Add(s.Eddy().Stats()) })
	return agg
}

// ModuleNames returns the shards' common module names in Stats order
// (fixed at construction, so no barrier is needed).
func (pe *ParallelEddy) ModuleNames() []string { return pe.shards[0].Eddy().ModuleNames() }

// ModuleProbeNanos returns the per-module probe latency EWMA, averaged
// across the shards that have a sample (barrier snapshot).
func (pe *ParallelEddy) ModuleProbeNanos() []int64 {
	var sums, counts []int64
	pe.Barrier(func(_ int, s Shard) {
		ns := s.Eddy().ModuleProbeNanos()
		if sums == nil {
			sums = make([]int64, len(ns))
			counts = make([]int64, len(ns))
		}
		for i, n := range ns {
			if n > 0 {
				sums[i] += n
				counts[i]++
			}
		}
	})
	for i := range sums {
		if counts[i] > 0 {
			sums[i] /= counts[i]
		}
	}
	return sums
}

// SetProbeTimer enables sampled probe latency measurement on every shard's
// modules (barrier: applied atomically w.r.t. in-flight tuples).
func (pe *ParallelEddy) SetProbeTimer(clk chaos.Clock, every int) {
	pe.Barrier(func(_ int, s Shard) { s.Eddy().SetProbeTimer(clk, every) })
}

// PolicyInfo reports shard 0's policy kind and module ranking: every shard
// runs the same kind but learns per key range, so one order stands for all.
func (pe *ParallelEddy) PolicyInfo() (name string, order []int) {
	pe.Barrier(func(shard int, s Shard) {
		if shard == 0 {
			name, order = s.Eddy().PolicyInfo()
		}
	})
	return name, order
}

// KeyPartition returns the flux-style partition function: a single-source
// wide tuple hashes on keyCols[its stream], that stream's column in the
// join set's one key class, so tuples that could ever join share a shard.
func KeyPartition(keyCols []int) func(*tuple.Tuple) int {
	return func(t *tuple.Tuple) int {
		s := bits.TrailingZeros64(uint64(t.Source))
		return int(t.Vals[keyCols[s]].Hash())
	}
}
