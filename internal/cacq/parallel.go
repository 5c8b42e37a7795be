package cacq

import (
	"fmt"

	"telegraphcq/internal/eddy"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
)

// ParallelOptions parameterizes a parallel selection engine.
type ParallelOptions struct {
	// Workers is the shard count (default GOMAXPROCS).
	Workers int
	// Policy builds each shard's routing policy (shards adapt
	// independently; default lottery with per-shard derived seeds).
	Policy func(shard int) eddy.Policy
}

// Parallel runs one selection class's shared super-query as a batch
// pipeline (eddy.ParallelEddy). Each batch the class drains goes whole to
// the next shard Engine in turn, which routes it like a sequential engine:
// its own lineage templates and grouped filters, its subscriber clones
// adopted as the wide rows. The merge stage delivers the shards' results in
// batch order through a front Engine that only keeps the members, so the
// members see the order one sequential engine fed the same batches delivers
// in. A join class never runs here: its SteMs stay on one sequential
// Engine, whatever the worker count.
type Parallel struct {
	front  *Engine
	shards []*Engine
	pe     *eddy.ParallelEddy
	pool   *tuple.Pool
}

// parShard is a shard Engine as a pipeline stage.
type parShard struct{ *Engine }

func (p parShard) Run(in []*tuple.Tuple, out []eddy.Output) []eddy.Output {
	p.out = out
	p.IngestOwned(0, in)
	out, p.out = p.out, nil
	return out
}

// Reclaim returns the delivered results' rows nobody kept to the pool and
// their lineage bitmaps to the spare list, as release does on a sequential
// engine. Without a recycler a bitmap may still ride on a row a member
// kept, so nothing is reused.
func (p parShard) Reclaim(out []eddy.Output) {
	if p.pool == nil {
		return
	}
	for _, o := range out {
		p.recycle(o.T, o.Lineage)
	}
}

func (p parShard) Eddy() *eddy.Eddy { return p.ed }

// NewParallelEngine builds a parallel engine for the one-stream layout. It
// refuses a layout of several streams: a class that joins runs on a
// sequential Engine.
func NewParallelEngine(layout *tuple.Layout, opt ParallelOptions) (*Parallel, error) {
	if layout.Streams() != 1 {
		return nil, fmt.Errorf("cacq: a parallel engine runs one-stream classes; this layout has %d streams", layout.Streams())
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
	front, err := New(layout, nil, nil)
	if err != nil {
		return nil, err
	}
	p := &Parallel{front: front}
	p.pe = eddy.NewParallel(eddy.ParallelConfig{
		Workers: opt.Workers,
		NewShard: func(shard int) eddy.Shard {
			sh, err := New(layout, nil, pol(shard))
			if err != nil {
				// Unreachable: the layout has no joins, so no SteMs.
				panic(err)
			}
			sh.forward()
			p.shards = append(p.shards, sh)
			return parShard{sh}
		},
		Merge: func(o eddy.Output) bool {
			kept, _ := p.front.deliver(o.T, o.Lineage)
			return kept
		},
	})
	return p, nil
}

// SetRecycler makes the shards reuse what they route, as Engine.SetRecycler
// does on a sequential engine: they adopt the base tuples IngestOwned hands
// them as their wide rows, and the rows no member kept go back to pool.
// Call it before the first ingest.
func (p *Parallel) SetRecycler(pool *tuple.Pool) {
	p.pe.Barrier(func([]eddy.Shard) {
		p.pool = pool
		for _, sh := range p.shards {
			sh.SetRecycler(pool)
		}
	})
}

// IngestOwned hands a batch of base tuples of the class's one stream whole
// to the next shard, which owns them from then on. The caller may reuse the
// slice itself. Single ingest goroutine, like Engine.IngestOwned.
func (p *Parallel) IngestOwned(_ int, base []*tuple.Tuple) { p.pe.Ingest(base) }

// IngestBatch is IngestOwned on copies: the caller keeps the base tuples.
func (p *Parallel) IngestBatch(s int, base []*tuple.Tuple) {
	own := make([]*tuple.Tuple, len(base))
	for i, t := range base {
		own[i] = t.CloneUsing(p.pool)
	}
	p.IngestOwned(s, own)
}

// AddMember registers a standing query, as Engine.AddMember does, on every
// shard and then on the front, under a Barrier: no batch is in the
// pipeline, so no tuple in flight meets a half-registered member. Every
// engine allocates lineage slots from the same sequence of changes, so each
// gives the member the same ID, which is what lets a bit a shard's filters
// left set mean the same member at the merge. Shards register footprint and
// selections; projection and output belong to the front, which gets no
// selections and so builds no filters. The shards hold the same members, so
// the first refuses when any would, before anything changed.
func (p *Parallel) AddMember(footprint tuple.SourceSet, selections []expr.Predicate,
	project []int, emit func(*tuple.Tuple) (kept bool)) (q *Query, err error) {
	p.pe.Barrier(func([]eddy.Shard) {
		var sq *Query
		for _, sh := range p.shards {
			if sq, err = sh.AddQuery(footprint, selections, nil, nil); err != nil {
				return
			}
		}
		if q, err = p.front.AddMember(footprint, nil, project, emit); err == nil && q.ID != sq.ID {
			err = fmt.Errorf("cacq: shards allocated query id %d, front %d: engines out of lockstep", sq.ID, q.ID)
		}
	})
	return q, err
}

// RemoveQuery unregisters a standing query from every engine, under a
// Barrier: the merge stage has delivered everything the shards produced for
// it, and no tuple in flight carries its bit when its slot is reused.
func (p *Parallel) RemoveQuery(id int) (err error) {
	p.pe.Barrier(func([]eddy.Shard) {
		for _, sh := range p.shards {
			err = sh.RemoveQuery(id)
		}
		if ferr := p.front.RemoveQuery(id); err == nil {
			err = ferr
		}
	})
	return err
}

// Host returns the pipeline as the engine's control plane: summed shard
// stats, sampled hop latency, shard 0's policy info, ParStats
// (eddy/host.go). Its methods run under a Barrier. The front engine routes
// nothing: its eddy is not part of it.
func (p *Parallel) Host() *eddy.ParallelEddy { return p.pe }

// Delivered sums results delivered to the standing queries.
func (p *Parallel) Delivered() (n int64) {
	p.pe.Barrier(func([]eddy.Shard) { n = p.front.Delivered() })
	return n
}

// Close stops the shards and drains the merge stage.
func (p *Parallel) Close() { p.pe.Close() }
