package eddy

// This file is the eddy control plane: how an eddy host — one Eddy run
// inline by its caller, or a ParallelEddy's pipeline shards — is
// observed. Both offer Stats, ModuleNames, ModuleProbeNanos and PolicyInfo,
// so a CACQ class, at one worker or many, is driven through one contract.
// An Eddy's methods are unsynchronized like the rest of its API; a
// ParallelEddy's quiesce the shards under a Barrier.

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

// ModuleNames returns the module names in Stats order.
func (e *Eddy) ModuleNames() []string {
	names := make([]string, len(e.modules))
	for i, m := range e.modules {
		names[i] = m.Name()
	}
	return names
}

// ModuleProbeNanos returns each module's sampled hop latency, an EWMA of ns
// per tuple visit on the eddy's clock, in Stats order (0 until the module's
// first sampled hop).
func (e *Eddy) ModuleProbeNanos() []int64 { return append([]int64(nil), e.probeNs...) }

// Stats sums the shard eddies' counters (a barrier snapshot): the same
// shape of telemetry as a single eddy.
func (pe *ParallelEddy) Stats() Stats {
	var agg Stats
	pe.Barrier(func(shards []Shard) {
		for _, s := range shards {
			agg.Add(s.Eddy().Stats())
		}
	})
	return agg
}

// ModuleNames returns the shards' common module names in Stats order. No
// barrier: modules are added only under one, by the control plane that
// also calls this.
func (pe *ParallelEddy) ModuleNames() []string { return pe.shards[0].Eddy().ModuleNames() }

// ModuleProbeNanos returns the per-module hop latency EWMA, averaged across
// the shards that have a sample (barrier snapshot).
func (pe *ParallelEddy) ModuleProbeNanos() []int64 {
	var sums, counts []int64
	pe.Barrier(func(shards []Shard) {
		for _, s := range shards {
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
		}
	})
	for i := range sums {
		if counts[i] > 0 {
			sums[i] /= counts[i]
		}
	}
	return sums
}

// PolicyInfo reports shard 0's policy kind and module ranking: every shard
// runs the same kind but learns from its own batches, so one order stands
// for all.
func (pe *ParallelEddy) PolicyInfo() (name string, order []int) {
	pe.Barrier(func(shards []Shard) { name, order = shards[0].Eddy().PolicyInfo() })
	return name, order
}
