package core

import (
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/tuple"
)

// batchDrain is the shared ingress stage of every query runtime: it moves
// pending tuples from the query's input connections into the runtime in
// batches, filtering out tuples already replayed from history/table
// contents (Seq <= preSeq) and recycling those dead subscriber clones.
// One drain call visits every open position, pulling at most budget tuples
// per position so a bursty stream cannot starve its siblings.
type batchDrain struct {
	conns  []*fjord.Conn
	closed []bool
	preSeq []int64
	buf    []*tuple.Tuple
	pool   *tuple.Pool
	budget int
}

// newBatchDrain wires a drain stage over conns. preSeq is aliased, not
// copied: runtimes fill it during history preload before the first drain.
// batch bounds the tuples handed to sink per call (the engine's BatchSize
// knob); budget bounds tuples per position per drain.
func newBatchDrain(conns []*fjord.Conn, preSeq []int64, pool *tuple.Pool, batch, budget int) *batchDrain {
	if batch < 1 {
		batch = 1
	}
	if budget < batch {
		budget = batch
	}
	return &batchDrain{
		conns:  conns,
		closed: make([]bool, len(conns)),
		preSeq: preSeq,
		buf:    make([]*tuple.Tuple, batch),
		pool:   pool,
		budget: budget,
	}
}

// drain pulls pending input and hands each non-empty batch to sink as
// (position, tuples). The tuples slice is only valid during the call; sink
// must copy any pointers it retains (the backing buffer is reused).
func (d *batchDrain) drain(sink func(pos int, ts []*tuple.Tuple)) (progressed, allDrained bool) {
	allDrained = true
	for pos, conn := range d.conns {
		if d.closed[pos] {
			continue
		}
		for taken := 0; taken < d.budget; {
			n := conn.RecvBatch(d.buf)
			if n == 0 {
				if conn.Drained() {
					d.closed[pos] = true
				}
				break
			}
			taken += n
			ts := d.buf[:n]
			w := 0
			for _, t := range ts {
				if t.Seq <= d.preSeq[pos] {
					// Already replayed from history; the subscriber clone
					// is dead.
					if d.pool != nil {
						d.pool.Put(t)
					}
					continue
				}
				ts[w] = t
				w++
			}
			if w == 0 {
				continue
			}
			progressed = true
			sink(pos, ts[:w])
		}
		if !d.closed[pos] {
			allDrained = false
		}
	}
	return progressed, allDrained
}

// outPipe is the post-eddy pipeline a class member runs on the rows it is
// delivered: an ungrouped aggregate folds incrementally (an implicit
// landmark window over the whole stream) and emits the running value after
// each change; DISTINCT drops repeats for the query's lifetime. Both copy
// values, never alias t.Vals, and neither recycles t: other members may
// hold it.
type outPipe struct {
	agg   *ops.LandmarkAgg
	dedup *ops.DupElim
}

// memberOutput builds a member's delivery: the projection the class engine
// applies for it (none for an aggregate, which folds whole rows) and the
// callback that runs the rest of its pipeline into its egress.
func memberOutput(q *RunningQuery, plan *sql.Plan) (project []int, emit func(*tuple.Tuple) (kept bool)) {
	var p outPipe
	if plan.HasAgg() {
		p.agg = ops.NewLandmarkAgg(plan.Aggs...)
	} else {
		project = plan.Project
	}
	if plan.Distinct {
		p.dedup = ops.NewDupElim()
	}
	if p.agg == nil && p.dedup == nil {
		return project, q.emit
	}
	// The pipeline, not emit, decides what reaches the egress here, so the
	// member reports every row kept and its projected row is never reused.
	return project, func(t *tuple.Tuple) bool {
		if r := p.route(t); r != nil {
			q.emit(r)
		}
		return true
	}
}

// route maps one delivered row to the member's result row, or nil when
// DISTINCT drops it. Not safe for concurrent use: the class delivers from a
// single goroutine (its stepping DU or its merge stage).
func (p *outPipe) route(t *tuple.Tuple) *tuple.Tuple {
	if p.agg != nil {
		p.agg.Add(t)
		out := p.agg.Result()
		out.TS, out.Seq = t.TS, t.Seq
		return out
	}
	if p.dedup != nil && !p.dedup.Accept(t) {
		return nil
	}
	return t
}
