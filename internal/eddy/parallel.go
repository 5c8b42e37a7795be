package eddy

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"telegraphcq/internal/metrics"
	"telegraphcq/internal/tuple"
)

// Shard is one worker's execution unit inside a ParallelEddy: it routes a
// whole batch on the worker's goroutine, the way a sequential engine routes
// one drained batch. Eddy exposes the shard's eddy to the control plane
// (host.go), which observes it under a Barrier.
type Shard interface {
	// Run routes in, a batch the shard now owns, to completion and appends
	// its results to out in the order its eddy completed them. It keeps no
	// reference to in's backing array.
	Run(in []*tuple.Tuple, out []Output) []Output
	// Reclaim takes back the results of an earlier Run once the merge stage
	// has delivered them; a result whose row the consumer kept has T nil.
	// It runs on the shard's goroutine, or under a Barrier before fn, so
	// the shard's state is as Run left it.
	Reclaim(out []Output)
	Eddy() *Eddy
}

// Output is one result of a shard: the row and the lineage its eddy took
// off it (nil when it had none).
type Output struct {
	T       *tuple.Tuple
	Lineage tuple.Bitset
}

// ParallelConfig parameterizes a ParallelEddy.
type ParallelConfig struct {
	// Workers is the number of shards (default GOMAXPROCS).
	Workers int
	// NewShard builds shard s's execution unit.
	NewShard func(shard int) Shard
	// Merge delivers one result on the single merge goroutine, in batch
	// order, and reports whether its consumer kept the row. Downstream code
	// (aggregates, DISTINCT, egress) needs no locking.
	Merge func(o Output) (kept bool)
}

// job is one batch's trip through the pipeline: Ingest fills in, a
// shard's Run fills out, the merge stage delivers out, and the job goes back
// to its shard's free list with both slices kept for the next batch.
type job struct {
	in  []*tuple.Tuple
	out []Output
}

// jobsPerShard bounds the batches a shard has in the pipeline at once; the
// caller's Ingest waits for one of them to come back before handing it
// another.
const jobsPerShard = 4

// ParallelEddy executes one logical eddy as a batch pipeline. Ingest
// hands each batch whole to the next shard in turn; each worker owns a
// private Shard and routes its batches in the order it got them; the merge
// stage reads the shards' results back in the same turn order, so it
// delivers batch k's results before batch k+1's: the order a sequential
// eddy fed the same batches delivers in, whichever shard finishes first.
//
// Like a sequential eddy's, its methods (Ingest, Barrier and the host
// methods built on it, Close) are called one at a time: a class calls
// them under its own lock. ParStats and the metrics read atomics and may
// run at any time.
type ParallelEddy struct {
	cfg    ParallelConfig
	shards []Shard
	// in, out and free carry shard i's jobsPerShard jobs: Ingest → worker,
	// worker → merge, and merge → Ingest while idle. Each is sized to hold
	// all of the shard's jobs, so only Ingest's wait for an idle job
	// blocks.
	in, out, free []chan *job

	next   int // shard of the next batch
	closed bool
	// inflight counts batches handed to a shard and not yet delivered by the
	// merge stage. Only Ingest adds to it, and never during a Barrier, so
	// the Barrier's Wait sees it settle.
	inflight sync.WaitGroup

	workers   sync.WaitGroup
	mergeDone chan struct{}

	ingested atomic.Int64
	merged   atomic.Int64
	batches  atomic.Int64
}

// NewParallel starts the workers and merge stage.
func NewParallel(cfg ParallelConfig) *ParallelEddy {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.NewShard == nil {
		panic("eddy: ParallelConfig.NewShard is required")
	}
	n := cfg.Workers
	pe := &ParallelEddy{
		cfg:       cfg,
		shards:    make([]Shard, n),
		in:        make([]chan *job, n),
		out:       make([]chan *job, n),
		free:      make([]chan *job, n),
		mergeDone: make(chan struct{}),
	}
	for i := range n {
		pe.shards[i] = cfg.NewShard(i)
		pe.in[i] = make(chan *job, jobsPerShard)
		pe.out[i] = make(chan *job, jobsPerShard)
		pe.free[i] = make(chan *job, jobsPerShard)
		for range jobsPerShard {
			pe.free[i] <- new(job)
		}
	}
	go pe.merge()
	for i := range n {
		pe.workers.Add(1)
		go pe.worker(i)
	}
	return pe
}

// Ingest hands b, whose tuples the pipeline now owns, whole to the next
// shard in turn, waiting while that shard has jobsPerShard batches in the
// pipeline (back-pressure). The caller may reuse b's backing array on
// return. After Close the tuples are dropped.
func (pe *ParallelEddy) Ingest(b []*tuple.Tuple) {
	if len(b) == 0 || pe.closed {
		return
	}
	i := pe.next
	pe.next = (i + 1) % len(pe.shards)
	j := <-pe.free[i]
	j.in = append(j.in[:0], b...)
	pe.inflight.Add(1)
	pe.ingested.Add(int64(len(b)))
	pe.batches.Add(1)
	pe.in[i] <- j
}

// Close stops the workers once they have routed everything handed to them
// and returns when the merge stage has delivered it. Idempotent.
func (pe *ParallelEddy) Close() {
	if !pe.closed {
		pe.closed = true
		for _, c := range pe.in {
			close(c)
		}
	}
	pe.workers.Wait()
	<-pe.mergeDone
}

// Barrier waits until the merge stage has delivered every batch handed to
// the shards, takes back their delivered results, and runs fn with the
// shards. The pipeline is empty then, and stays so until the next Ingest: fn may mutate shard state (add or remove standing queries, set
// the clock), read shard statistics, or change what the Merge callback
// delivers to.
func (pe *ParallelEddy) Barrier(fn func(shards []Shard)) {
	pe.inflight.Wait()
	for i, s := range pe.shards {
		for range jobsPerShard {
			j := <-pe.free[i]
			reclaim(s, j)
			pe.free[i] <- j
		}
	}
	fn(pe.shards)
}

// reclaim hands j's delivered results back to shard s and empties j.out.
func reclaim(s Shard, j *job) {
	if len(j.out) == 0 {
		return
	}
	s.Reclaim(j.out)
	clear(j.out)
	j.out = j.out[:0]
}

// worker is shard i's goroutine: take back the job's previous results,
// route its batch, and pass the job on to the merge stage.
func (pe *ParallelEddy) worker(i int) {
	defer pe.workers.Done()
	s := pe.shards[i]
	for j := range pe.in[i] {
		reclaim(s, j)
		j.out = s.Run(j.in, j.out)
		clear(j.in)
		j.in = j.in[:0]
		pe.out[i] <- j
	}
	close(pe.out[i])
}

// merge delivers the shards' results in batch order: batch k went to shard
// k mod Workers, and each shard passes its jobs on in the order it got
// them, so reading the shards' outputs in turn reads the batches in order.
// A closed output means that shard got no further batch, so neither did any
// later one.
func (pe *ParallelEddy) merge() {
	defer close(pe.mergeDone)
	for i := 0; ; i = (i + 1) % len(pe.out) {
		j, ok := <-pe.out[i]
		if !ok {
			return
		}
		for k := range j.out {
			if pe.cfg.Merge != nil && pe.cfg.Merge(j.out[k]) {
				j.out[k].T = nil
			}
		}
		pe.merged.Add(int64(len(j.out)))
		pe.free[i] <- j
		pe.inflight.Done()
	}
}

// ParallelStats snapshots a ParallelEddy's activity.
type ParallelStats struct {
	Workers     int
	Ingested    int64 // tuples accepted by Ingest
	Merged      int64 // results delivered by the merge stage
	Batches     int64 // batches handed to shards (mean size = Ingested/Batches)
	QueueDepths []int // batches waiting in each shard's input queue
}

// ParStats returns a snapshot of the pipeline's own counters (safe to call
// while running); Stats reports the shard eddies' summed counters.
func (pe *ParallelEddy) ParStats() ParallelStats {
	st := ParallelStats{
		Workers:  len(pe.shards),
		Ingested: pe.ingested.Load(),
		Merged:   pe.merged.Load(),
		Batches:  pe.batches.Load(),
	}
	for _, c := range pe.in {
		st.QueueDepths = append(st.QueueDepths, len(c))
	}
	return st
}

// RegisterMetrics exports the pipeline's series into reg, labelled
// par="<name>": per-shard queue depths, batch counts and mean size, and
// merge activity. The returned function unregisters them.
func (pe *ParallelEddy) RegisterMetrics(reg *metrics.Registry, name string) func() {
	lbl := fmt.Sprintf(`{par=%q}`, name)
	reg.RegisterFunc("tcq_parallel_workers"+lbl, metrics.KindGauge, func() float64 {
		return float64(len(pe.shards))
	})
	reg.RegisterFunc("tcq_parallel_ingested_total"+lbl, metrics.KindCounter, func() float64 {
		return float64(pe.ingested.Load())
	})
	reg.RegisterFunc("tcq_parallel_merged_total"+lbl, metrics.KindCounter, func() float64 {
		return float64(pe.merged.Load())
	})
	reg.RegisterFunc("tcq_parallel_batches_total"+lbl, metrics.KindCounter, func() float64 {
		return float64(pe.batches.Load())
	})
	reg.RegisterFunc("tcq_parallel_batch_size_mean"+lbl, metrics.KindGauge, func() float64 {
		b := pe.batches.Load()
		if b == 0 {
			return 0
		}
		return float64(pe.ingested.Load()) / float64(b)
	})
	for i, c := range pe.in {
		slbl := fmt.Sprintf(`{par=%q,shard="%d"}`, name, i)
		reg.RegisterFunc("tcq_parallel_shard_queue_depth"+slbl, metrics.KindGauge, func() float64 {
			return float64(len(c))
		})
	}
	match := fmt.Sprintf(`par=%q`, name)
	return func() { reg.UnregisterMatching(match) }
}
