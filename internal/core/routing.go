package core

import (
	"fmt"
	"hash/fnv"
	"strings"

	"telegraphcq/internal/eddy"
	"telegraphcq/internal/introspect"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/tuple"
)

// This file is the one place routing policies are constructed: every
// eddy host (a private eddy inline or partitioned, a shared CACQ class at
// one worker or many) resolves Options.Routing through the engine factory
// below with its historically-derived seed, instead of hard-coding policy
// literals per construction site.

// routingPolicy resolves Options.Routing into a policy instance for one
// eddy. seed is the runtime-derived base (per query, per shard, per class).
// With the zero config this returns exactly the legacy
// eddy.NewLotteryPolicy(seed); an invalid Kind (only reachable by setting
// Options.Routing programmatically — the flag/wire parsers validate) falls
// back to the same legacy lottery.
func (e *Engine) routingPolicy(seed int64) eddy.Policy {
	p, err := e.opts.Routing.NewPolicy(seed)
	if err != nil {
		return eddy.NewLotteryPolicy(seed)
	}
	return p
}

// classSeed derives a shared class's policy seed from its class key, so
// every engine resolving the same class (e.g. both sides of an
// arrangement-equivalence pin) seeds identically while distinct classes
// adapt independently — replacing the historical hard-coded seed 1.
func classSeed(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(h.Sum64()&(1<<62-1)) + 1
}

// nwayEligible reports whether a plan's join graph spans three or more
// streams — the shape where a per-batch probe-order plan (one ChooseOrder
// across all SteMs) differs from per-hop binary routing.
func nwayEligible(plan *sql.Plan) bool {
	if len(plan.Joins) == 0 {
		return false
	}
	participates := map[int]bool{}
	for _, j := range plan.Joins {
		participates[j.StreamA] = true
		participates[j.StreamB] = true
	}
	return len(participates) >= 3
}

// nwayEvery returns the probe-order reuse interval for a plan under routing
// config r, or 0 when the k-ary chain stays off: r unset (the legacy pin),
// nway=off, or a join graph too small to benefit.
func nwayEvery(r eddy.RoutingConfig, plan *sql.Plan) int {
	if r.IsZero() || r.NoNWay || !nwayEligible(plan) {
		return 0
	}
	return r.EveryOrDefault()
}

// orderSink returns a publisher recording fresh probe-order plans as
// tcq.routes rows under owner (path column: "order:SteM(A)>SteM(B)>…"),
// or nil when introspection is off. Safe to call from worker goroutines —
// the introspection ring is a bounded multi-producer buffer.
func (e *Engine) orderSink(owner string, names []string) func(sig uint64, order []int) {
	if e.intro == nil {
		return nil
	}
	in := e.intro
	return func(sig uint64, order []int) {
		in.ring.Publish(introspect.Row{
			Stream: introspect.RoutesStream,
			Vals: []tuple.Value{
				tuple.Time(e.opts.Clock.Now().UnixNano()),
				tuple.String_(owner),
				tuple.Int(int64(sig)),
				tuple.Bool(false),
				tuple.Int(int64(len(order))),
				tuple.Int(0),
				tuple.String_("order:" + strings.Join(orderNames(names, order), ">")),
			},
		})
	}
}

// SetQueryPolicy swaps a standing query's routing policy at runtime (the
// SET POLICY wire command): the spec is ParseRouting grammar, e.g.
// "selectivity every=16" or "fixed order=2,1,3". The swap applies to the
// query's eddy host — its private eddy, each of its shards (under a
// barrier), or its whole shared class: every member of a shared class is
// re-routed together, since they share one super-query eddy. Learned
// routing state starts fresh. The windowed runtime has no adaptive routing
// layer and reports an error.
func (e *Engine) SetQueryPolicy(qid int, spec string) error {
	cfg, err := eddy.ParseRouting(spec)
	if err != nil {
		return err
	}
	q, ok := e.Query(qid)
	if !ok {
		return fmt.Errorf("core: query %d not found", qid)
	}
	every := nwayEvery(cfg, q.Plan)
	if !q.rt.control(func(h eddyHost, seed func(shard int) int64) {
		h.SetRoutingPolicy(func(shard int) eddy.Policy {
			p, perr := cfg.NewPolicy(seed(shard))
			if perr != nil {
				p = eddy.NewLotteryPolicy(seed(shard))
			}
			return p
		}, every)
	}) {
		return fmt.Errorf("core: query %d runs on a runtime without an adaptive routing layer", qid)
	}
	return nil
}

// orderNames maps a module-index ranking to module names.
func orderNames(names []string, order []int) []string {
	out := make([]string, 0, len(order))
	for _, i := range order {
		if i >= 0 && i < len(names) {
			out = append(out, names[i])
		}
	}
	return out
}
