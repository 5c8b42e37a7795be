package cacq

import (
	"fmt"
	"sync"

	"telegraphcq/internal/arrange"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
)

// ParallelOptions parameterizes a parallel shared engine.
type ParallelOptions struct {
	// Workers is the shard count (default GOMAXPROCS).
	Workers int
	// BatchSize amortizes each driver-to-shard handoff (default 64).
	BatchSize int
	// Policy builds each shard's routing policy (shards adapt
	// independently; default lottery with per-shard derived seeds). Called
	// once per worker shard plus once with shard -1 for the front engine.
	Policy func(shard int) eddy.Policy
	// Ordered enables the order-preserving merge: inputs must arrive with
	// non-decreasing Seq, and delivery happens in exactly the sequential
	// engine's order. Leave false for workloads without a global arrival
	// order (independently sequenced streams).
	Ordered bool
}

// Parallel executes one shared CACQ super-query across hash-partitioned
// worker shards. A "front" Engine owns the standing queries and performs
// delivery on the single-threaded merge stage (it has grouped filters but no
// SteMs: it routes nothing); each worker owns a full shard Engine (grouped
// filters + SteM partitions, in shard-local arrangements) processing only its
// slice of the key space. Lineage bitmaps are stamped once at ingress,
// mutated shard-locally, and read at merge — no cross-shard lineage
// traffic. Tuples partition on their stream's column in the shared
// equijoin equivalence class (see PartitionColumns), so every pair of
// tuples that could join meets in the same shard's SteMs.
type Parallel struct {
	front  *Engine
	pe     *eddy.ParallelEddy
	layout *tuple.Layout
	// shardEngs lists the shard engines by shard (construction-time only)
	// so Arrangements can reach their internally-locked arrangements
	// without a barrier.
	shardEngs []*Engine

	// deliverMu guards the front engine's delivery state (byFootprint,
	// per-query delivered counters) between the merge goroutine and
	// control-plane calls. Never held across a Barrier — the merge stage
	// must stay free to drain while a barrier waits for the queues.
	deliverMu sync.Mutex

	// ctlMu serializes the driver hot path (Ingest/Flush, read-locked)
	// against control-plane mutation (write-locked), covering the front
	// engine's lineage templates, which Ingest reads before entering the
	// parallel layer's own lock.
	ctlMu sync.RWMutex
}

// parShard adapts a shard Engine to the eddy.Shard interface: parallel
// inputs arrive pre-widened with lineage stamped.
type parShard struct{ *Engine }

func (p parShard) Ingest(t *tuple.Tuple) { p.Engine.IngestWide(t) }
func (p parShard) Eddy() *eddy.Eddy      { return p.Engine.ed }

// NewParallelEngine builds a parallel shared engine over layout with the
// given shared join edges. It fails when the join set is not partitionable
// (a non-equi edge, or more than one column-equivalence class — see
// PartitionColumns); callers fall back to a sequential Engine.
func NewParallelEngine(layout *tuple.Layout, joins []JoinSpec, opt ParallelOptions) (*Parallel, error) {
	keyCols, ok := PartitionColumns(layout, joins)
	if !ok {
		return nil, fmt.Errorf("cacq: join set is not one equijoin key class; not partitionable")
	}
	pol := opt.Policy
	if pol == nil {
		// Per-shard derived seeds off a per-construction base, so shards
		// explore independently and repeated trials are independent too.
		base := engineSeq.Add(1)
		pol = func(shard int) eddy.Policy {
			return eddy.NewLotteryPolicy(base*64 + int64(shard) + 2)
		}
	}
	front, err := build(layout, joins, pol(-1), roleFront)
	if err != nil {
		return nil, err
	}
	p := &Parallel{front: front, layout: layout}
	var orderBy func(*tuple.Tuple) int64
	if opt.Ordered {
		orderBy = func(t *tuple.Tuple) int64 { return t.Seq }
	}
	p.pe = eddy.NewParallel(eddy.ParallelConfig{
		Workers:   opt.Workers,
		BatchSize: opt.BatchSize,
		Partition: eddy.KeyPartition(keyCols),
		NewShard: func(shard int, emit func(*tuple.Tuple)) eddy.Shard {
			sh, err := build(layout, joins, pol(shard), roleShard)
			if err != nil {
				// Unreachable: the front engine reserved as many modules.
				panic(err)
			}
			sh.SetDeliverySink(emit)
			p.shardEngs = append(p.shardEngs, sh)
			return parShard{sh}
		},
		Merge: func(t *tuple.Tuple) {
			p.deliverMu.Lock()
			p.front.deliver(t, t.Queries)
			p.deliverMu.Unlock()
		},
		OrderBy: orderBy,
	})
	return p, nil
}

// IngestBatch widens a batch of base tuples of stream s, stamps their
// lineage from the front engine's standing-query set under one
// control-plane lock acquisition, and routes each to its key's shard.
// Single ingest goroutine, like Engine.IngestBatch; the caller keeps
// ownership of the base tuples (Widen copies).
func (p *Parallel) IngestBatch(s int, base []*tuple.Tuple) {
	if len(base) == 0 {
		return
	}
	p.ctlMu.RLock()
	defer p.ctlMu.RUnlock()
	tmpl := p.front.interestedFor(s)
	if !tmpl.Any() {
		return
	}
	for _, bt := range base {
		t := p.layout.Widen(s, bt)
		t.Queries = tmpl.Clone()
		p.pe.Ingest(t)
	}
}

// Flush pushes partial driver batches to the shards; call at the end of an
// input step so trickle traffic is not held back by batch boundaries.
func (p *Parallel) Flush() {
	p.ctlMu.RLock()
	defer p.ctlMu.RUnlock()
	p.pe.Flush()
}

// AddQuery registers a standing query on the front engine and every shard
// in lockstep — all engines allocate IDs sequentially, so the same
// mutation order yields the same ID everywhere, which is what lets a
// lineage bit set on a shard mean the same query at the merge. The change
// happens under a shard barrier (atomic with respect to in-flight tuples);
// the front registers first, so a tuple completing concurrently simply
// finds the new bit absent from its lineage and skips the query. Shards
// register footprint and selections only: projection and output belong to
// the front's delivery stage.
func (p *Parallel) AddQuery(footprint tuple.SourceSet, selections []expr.Predicate,
	project []int, out func(*tuple.Tuple)) (*Query, error) {
	return p.AddMember(footprint, selections, project, keepsAll(out))
}

// AddMember is AddQuery with Engine.AddMember's output on the front: the
// merge stage delivers on one goroutine, so a projected row emit did not
// keep is reused as on a sequential engine.
func (p *Parallel) AddMember(footprint tuple.SourceSet, selections []expr.Predicate,
	project []int, emit func(*tuple.Tuple) (kept bool)) (*Query, error) {
	p.ctlMu.Lock()
	defer p.ctlMu.Unlock()
	var q *Query
	var err error
	p.pe.Barrier(func(shard int, s eddy.Shard) {
		if err != nil {
			return
		}
		if q == nil {
			p.deliverMu.Lock()
			q, err = p.front.AddMember(footprint, selections, project, emit)
			p.deliverMu.Unlock()
			if err != nil {
				return
			}
		}
		sq, serr := s.(parShard).Engine.AddQuery(footprint, selections, nil, nil)
		if serr != nil {
			err = serr
			return
		}
		if sq.ID != q.ID {
			err = fmt.Errorf("cacq: shard %d allocated query id %d, front %d: engines out of lockstep", shard, sq.ID, q.ID)
		}
	})
	if err != nil {
		return nil, err
	}
	return q, nil
}

// RemoveQuery unregisters a standing query from every shard, lets the merge
// stage deliver what the shards had already produced for it, then drops it
// from the front.
func (p *Parallel) RemoveQuery(id int) error {
	p.ctlMu.Lock()
	defer p.ctlMu.Unlock()
	var err error
	p.pe.Barrier(func(shard int, s eddy.Shard) {
		if serr := s.(parShard).Engine.RemoveQuery(id); serr != nil && err == nil {
			err = serr
		}
	})
	p.pe.Settle()
	p.deliverMu.Lock()
	if ferr := p.front.RemoveQuery(id); ferr != nil && err == nil {
		err = ferr
	}
	p.deliverMu.Unlock()
	return err
}

// Arrangements calls fn with every shard's arrangements, by shard; the front
// engine has none. No barrier: the lists are fixed at construction and an
// arrangement is internally locked.
func (p *Parallel) Arrangements(fn func(shard int, a *arrange.Arrangement)) {
	for i, sh := range p.shardEngs {
		for _, a := range sh.arrs {
			fn(i, a)
		}
	}
}

// Host returns the shard layer as the engine's control plane: summed shard
// stats, sampled hop latency, shard 0's policy info, ParStats (eddy/host.go). Its
// methods quiesce the shards under a Barrier, which locks the driver out by
// itself, and touch no front-engine state, so they need no ctlMu. The front
// engine sees no tuples and never learns: its policy is not part of it.
func (p *Parallel) Host() *eddy.ParallelEddy { return p.pe }

// QueryCount returns the number of standing queries.
func (p *Parallel) QueryCount() int {
	p.deliverMu.Lock()
	defer p.deliverMu.Unlock()
	return p.front.QueryCount()
}

// Delivered sums results delivered to the standing queries.
func (p *Parallel) Delivered() int64 {
	p.deliverMu.Lock()
	defer p.deliverMu.Unlock()
	return p.front.Delivered()
}

// Close flushes, stops the workers, and drains the merge stage.
func (p *Parallel) Close() {
	p.ctlMu.Lock()
	defer p.ctlMu.Unlock()
	p.pe.Close()
}

// PartitionColumns reports, per stream, the wide-row column tuples of that
// stream hash-partition on. Partitioned parallel execution of the shared
// join set is sound only when all equijoin edges connect columns in ONE
// equivalence class (union-find over the edges): then equal join keys hash
// identically on every stream and all matching tuples co-locate. Streams
// outside the join set partition on their first column (any deterministic
// choice is sound — their tuples touch no cross-tuple state). ok=false
// means the join set has a non-equi edge or spans multiple classes (e.g.
// A.x=B.x AND B.y=C.y) and the caller must stay sequential.
func PartitionColumns(layout *tuple.Layout, joins []JoinSpec) ([]int, bool) {
	cols := make([]int, layout.Streams())
	for s := range cols {
		cols[s] = layout.Offsets[s]
	}
	if len(joins) == 0 {
		return cols, true
	}
	for _, j := range joins {
		if j.Op != expr.Eq {
			return nil, false
		}
	}
	parent := make([]int, layout.Width())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, j := range joins {
		parent[find(j.ColA)] = find(j.ColB)
	}
	root := find(joins[0].ColA)
	for _, j := range joins {
		if find(j.ColA) != root || find(j.ColB) != root {
			return nil, false
		}
	}
	for _, j := range joins {
		cols[j.StreamA] = j.ColA
		cols[j.StreamB] = j.ColB
	}
	return cols, true
}
