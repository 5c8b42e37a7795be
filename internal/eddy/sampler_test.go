package eddy

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/tuple"
)

// costly is a module whose every tuple takes cost on a virtual clock.
type costly struct {
	Module
	clk  *chaos.VirtualClock
	cost time.Duration
}

func (c costly) ProcessBatch(b *tuple.Batch) ([]*tuple.Tuple, int) {
	c.clk.Advance(c.cost * time.Duration(len(b.Tuples)))
	return c.Module.ProcessBatch(b)
}

// TestOneHopSampler pins the eddy's one hop clock: every module's
// ModuleProbeNanos is its ns per tuple visit, whatever the batch size, and
// a selectivity-ranked N-way eddy plans the same probe orders whatever its
// modules cost, so observing latency never changes routing.
func TestOneHopSampler(t *testing.T) {
	l := tuple.NewLayout(tuple.NewSchema("S", tuple.Column{Name: "x", Kind: tuple.KindInt}))
	// Two filters keep everything, so their selectivities tie; the third
	// keeps half.
	preds := []expr.Predicate{{Col: 0, Op: expr.Ge, Val: tuple.Int(0)},
		{Col: 0, Op: expr.Ge, Val: tuple.Int(0)}, {Col: 0, Op: expr.Lt, Val: tuple.Int(50)}}
	run := func(costs []time.Duration, policy Policy, batch int) (*Eddy, [][]int) {
		clk := chaos.NewVirtual(time.Time{})
		var mods []Module
		for i, p := range preds {
			f := ops.NewFilter(fmt.Sprintf("f%d", i), l, p)
			mods = append(mods, costly{f, clk, costs[i]})
		}
		e := New(tuple.SingleSource(0), policy, nil, mods...)
		e.SetClock(clk)
		var orders [][]int
		e.SetNWay(2)
		e.SetOrderSink(func(_ uint64, order []int) { orders = append(orders, slices.Clone(order)) })
		for i := 0; i < 1280; i += batch {
			b := tuple.NewBatch(batch)
			for j := i; j < i+batch; j++ {
				b.Tuples = append(b.Tuples, widen(l, 0, int64(j), tuple.Int(int64(j%100))))
			}
			e.IngestBatch(b)
		}
		return e, orders
	}
	costs := []time.Duration{10, 20, 30}
	for _, batch := range []int{1, 64} {
		e, _ := run(costs, NewFixedPolicy(), batch)
		for i, ns := range e.ModuleProbeNanos() {
			if ns != int64(costs[i]) {
				t.Errorf("batch %d: module %d probe ns = %d, want its per-tuple cost %d",
					batch, i, ns, costs[i])
			}
		}
	}
	cheap, a := run(costs, NewSelectivityPolicy(3), 8)
	dear, b := run([]time.Duration{30, 20, 10}, NewSelectivityPolicy(3), 8)
	if slices.Equal(cheap.ModuleProbeNanos(), dear.ModuleProbeNanos()) {
		t.Fatalf("both runs sampled %v: the costs did not reach the sampler", cheap.ModuleProbeNanos())
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("the two runs planned %d and %d probe orders", len(a), len(b))
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("probe order %d depends on module cost: %v, then %v", i, a[i], b[i])
		}
	}
}
