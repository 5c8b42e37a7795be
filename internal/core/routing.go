package core

import (
	"hash/fnv"
	"strings"

	"telegraphcq/internal/eddy"
	"telegraphcq/internal/introspect"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/tuple"
)

// planReuse is how many batches of one lineage signature ride a probe-order
// plan before the policy is consulted again: §4.3's "batching tuples" at
// the grain the batch-native eddy routes.
const planReuse = 32

// route is the engine's one routing rule (§2.2, §4.3): every eddy host — a
// private eddy inline or partitioned, a shared CACQ class at one worker or
// many — takes its policy from the shape of its plan, not from
// configuration. seed is the host's per-query, per-shard or per-class seed.
//
// A join graph spanning fewer than three streams (selections, two-stream
// joins, every shared class) has at most one probe per hop to choose, so it
// keeps the per-hop LotteryPolicy and reuse is 0. A private eddy over three
// or more streams plans each batch's whole probe order with
// SelectivityPolicy, reuses the plan for planReuse batches per lineage
// signature, and prunes sibling probes whose intermediates are doomed;
// reuse is the interval for eddy.SetNWay.
func route(plan *sql.Plan, seed int64) (p eddy.Policy, reuse int) {
	if len(joinStreams(plan)) < 3 {
		return eddy.NewLotteryPolicy(seed), 0
	}
	return eddy.NewSelectivityPolicy(seed), planReuse
}

// classSeed derives a shared class's policy seed from its class key, so
// every engine resolving the same class (e.g. both sides of an
// arrangement-equivalence pin) seeds identically while distinct classes
// adapt independently.
func classSeed(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(h.Sum64()&(1<<62-1)) + 1
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
