package eddy

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"telegraphcq/internal/fjord"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/tuple"
)

// Shard is one worker's execution unit inside a ParallelEddy: an eddy (or
// an engine wrapping one) that processes a tuple synchronously on the
// worker's goroutine. Eddy exposes the shard's eddy to the control plane
// (host.go), which observes it under a Barrier. *Eddy
// satisfies Shard.
type Shard interface {
	Ingest(*tuple.Tuple)
	Eddy() *Eddy
}

// ParallelConfig parameterizes a ParallelEddy.
type ParallelConfig struct {
	// Workers is the number of shards (default GOMAXPROCS).
	Workers int
	// BatchSize is the tuple count amortizing each queue handoff
	// (default 64). Ingest buffers per shard and flushes full batches;
	// Flush pushes partial ones.
	BatchSize int
	// Partition maps a tuple to a shard index (taken mod Workers). Use
	// flux-style key hashing so tuples that must meet in one SteM
	// co-locate; see KeyPartition.
	Partition func(*tuple.Tuple) int
	// NewShard builds shard s's execution unit. emit is the shard's
	// output: it may be called only while the shard is processing a
	// tuple handed to it by the worker (the usual eddy output path).
	NewShard func(shard int, emit func(*tuple.Tuple)) Shard
	// Merge receives every shard output on a single merge goroutine —
	// downstream code (aggregates, DISTINCT, egress) needs no locking.
	Merge func(*tuple.Tuple)
	// OrderBy, when set, enables the order-preserving merge: inputs must
	// arrive at Ingest in non-decreasing OrderBy order (e.g. the ingress
	// Seq of a single stream), and outputs are released globally sorted
	// by the OrderBy value of the input that triggered them — the exact
	// emission order of a sequential eddy. Nil selects arrival-order
	// merge (joins over multiple independently-sequenced streams, where
	// per-source order is not defined across streams).
	OrderBy func(*tuple.Tuple) int64
}

func (c *ParallelConfig) defaults() {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize < 1 {
		c.BatchSize = 64
	}
}

// mergeItem is one shard output labelled with its trigger's order key.
type mergeItem struct {
	key int64
	t   *tuple.Tuple
}

// workerState is the emit-side state shared between a shard's output
// closure and its worker loop: outputs accumulated during the current
// batch, labelled with the key of the tuple being processed. Only touched
// under the worker's shardMu.
type workerState struct {
	out    []mergeItem
	curKey int64
}

// parMsg is the one channel type feeding the merge goroutine: worker
// output batches (shard >= 0) and driver progress marks (shard == -1).
type parMsg struct {
	shard int
	items []mergeItem
	// done is the worker's cumulative count of inputs fully processed;
	// procMax the highest order key among them. Outputs for those inputs
	// precede the message (same channel, FIFO), so the pair is a
	// watermark: this shard will never again emit an item keyed <=
	// procMax.
	done    int64
	procMax int64
	// Driver marks: g is the highest key ingested so far and sent[i] the
	// cumulative tuples handed to shard i. A shard that has processed
	// everything sent to it (done == sent) is idle at watermark g: its
	// next output can only be triggered by a key > g.
	g    int64
	sent []int64
	// ack, on a driver mark, is closed once the mark is handled (Settle).
	ack chan struct{}
}

// ParallelEddy executes one logical eddy as hash-partitioned worker
// shards. The driver (Ingest/Flush/Close — single goroutine, like a
// sequential eddy's caller) partitions tuples by key and hands them to
// workers in batches over fjord pull connections; each worker owns a
// private Shard (eddy + SteM partitions), so shards share no state and
// need no locks; a single merge goroutine re-serializes the shards'
// outputs, optionally restoring the sequential emission order.
//
// Workers=1 degenerates to one shard fed through one queue — the same
// module code on the same tuple order as the sequential eddy.
type ParallelEddy struct {
	cfg    ParallelConfig
	conns  []*fjord.Conn
	shards []Shard
	wstate []*workerState
	// shardMu[i] is held by worker i while it processes a batch; Barrier
	// acquires all of them (after draining the queues) to mutate or read
	// shard state safely.
	shardMu []sync.Mutex

	// Driver state (single ingest goroutine).
	pending [][]*tuple.Tuple
	// pendFirst[s] is the order key of the oldest tuple still buffered in
	// pending[s]; the driver's published watermark must stay below it, or
	// the merge could release a later key while an earlier one has not
	// even reached its shard yet.
	pendFirst []int64
	sent      []int64
	g         int64
	closed    bool
	// processed[i] is worker i's cumulative count of inputs fully processed
	// (stored under shardMu[i]), handed[i] of those whose outputs it has
	// passed to the merge stage; Barrier and Settle compare them with sent[i].
	processed, handed []atomic.Int64

	// ingestMu excludes Barrier from the driver hot path: Ingest/Flush
	// hold it shared, Barrier exclusively.
	ingestMu sync.RWMutex

	mergeCh   chan parMsg
	workersWG sync.WaitGroup
	mergeDone chan struct{}

	ingested    atomic.Int64
	merged      atomic.Int64
	batches     atomic.Int64
	batchTuples atomic.Int64
	maxHeld     atomic.Int64 // high-water mark of the ordered-merge buffer
}

// NewParallel starts the workers and merge stage.
func NewParallel(cfg ParallelConfig) *ParallelEddy {
	cfg.defaults()
	if cfg.Partition == nil {
		panic("eddy: ParallelConfig.Partition is required")
	}
	if cfg.NewShard == nil {
		panic("eddy: ParallelConfig.NewShard is required")
	}
	pe := &ParallelEddy{
		cfg:       cfg,
		conns:     make([]*fjord.Conn, cfg.Workers),
		shards:    make([]Shard, cfg.Workers),
		shardMu:   make([]sync.Mutex, cfg.Workers),
		pending:   make([][]*tuple.Tuple, cfg.Workers),
		pendFirst: make([]int64, cfg.Workers),
		sent:      make([]int64, cfg.Workers),
		processed: make([]atomic.Int64, cfg.Workers),
		handed:    make([]atomic.Int64, cfg.Workers),
		mergeCh:   make(chan parMsg, 4*cfg.Workers),
		mergeDone: make(chan struct{}),
	}
	pe.wstate = make([]*workerState, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		// Eight handoff batches of slack per shard; a full queue
		// back-pressures Ingest.
		pe.conns[i] = fjord.NewConn(fjord.Pull, 8*cfg.BatchSize)
		pe.pending[i] = make([]*tuple.Tuple, 0, cfg.BatchSize)
		ws := &workerState{}
		pe.wstate[i] = ws
		pe.shards[i] = cfg.NewShard(i, func(t *tuple.Tuple) {
			ws.out = append(ws.out, mergeItem{key: ws.curKey, t: t})
		})
	}
	go pe.mergeLoop()
	for i := 0; i < cfg.Workers; i++ {
		i := i
		pe.workersWG.Add(1)
		go pe.worker(i)
	}
	go func() {
		// Close the merge channel only after every worker has pushed its
		// final watermark, so the merge loop can drain and release the
		// tail of the ordered buffer.
		pe.workersWG.Wait()
		close(pe.mergeCh)
	}()
	return pe
}

// Ingest partitions one tuple to its shard, buffering up to BatchSize
// before handing the batch to the worker. Single-goroutine, like a
// sequential eddy's Ingest. In ordered mode the OrderBy key must be
// non-decreasing across calls.
func (pe *ParallelEddy) Ingest(t *tuple.Tuple) {
	pe.ingestMu.RLock()
	defer pe.ingestMu.RUnlock()
	if pe.closed {
		return
	}
	var key int64
	if pe.cfg.OrderBy != nil {
		key = pe.cfg.OrderBy(t)
		if key > pe.g {
			pe.g = key
		}
	}
	s := pe.cfg.Partition(t) % pe.cfg.Workers
	if s < 0 {
		s += pe.cfg.Workers
	}
	if len(pe.pending[s]) == 0 {
		pe.pendFirst[s] = key
	}
	pe.pending[s] = append(pe.pending[s], t)
	pe.ingested.Add(1)
	if len(pe.pending[s]) >= pe.cfg.BatchSize {
		pe.flushShard(s)
		pe.driverMark()
	}
}

// IngestBatch partitions a batch of tuples in order. The caller keeps
// ownership of b's header and may reuse it on return, like Eddy.IngestBatch.
func (pe *ParallelEddy) IngestBatch(b *tuple.Batch) {
	for _, t := range b.Tuples {
		pe.Ingest(t)
	}
}

// Flush pushes every shard's partial batch to its worker and publishes
// the driver's progress watermark. Call at the end of an input step so
// trickling streams are not held back by batch boundaries.
func (pe *ParallelEddy) Flush() {
	pe.ingestMu.RLock()
	defer pe.ingestMu.RUnlock()
	if pe.closed {
		return
	}
	pe.flushAll()
}

func (pe *ParallelEddy) flushAll() {
	for s := range pe.pending {
		if len(pe.pending[s]) > 0 {
			pe.flushShard(s)
		}
	}
	pe.driverMark()
}

// flushShard hands shard s's pending batch to its worker over the pull
// connection (blocking when the worker is behind — back-pressure).
func (pe *ParallelEddy) flushShard(s int) {
	batch := pe.pending[s]
	pe.conns[s].SendBatch(batch)
	pe.sent[s] += int64(len(batch))
	pe.batches.Add(1)
	pe.batchTuples.Add(int64(len(batch)))
	pe.pending[s] = pe.pending[s][:0]
}

// driverMark publishes ingest progress to the merge stage (ordered mode
// only), letting idle shards' watermarks advance with the stream. The
// published watermark is the highest key K such that every tuple keyed
// <= K has been handed to a worker: tuples still buffered in a pending
// batch cap it at their key minus one.
func (pe *ParallelEddy) driverMark() {
	if pe.cfg.OrderBy == nil {
		return
	}
	g := pe.g
	for s := range pe.pending {
		if len(pe.pending[s]) > 0 && pe.pendFirst[s]-1 < g {
			g = pe.pendFirst[s] - 1
		}
	}
	pe.mergeCh <- parMsg{shard: -1, g: g, sent: append([]int64(nil), pe.sent...)}
}

// Close flushes pending batches, stops the workers, waits for the merge
// stage to drain, and returns. Idempotent.
func (pe *ParallelEddy) Close() {
	pe.ingestMu.Lock()
	if pe.closed {
		pe.ingestMu.Unlock()
		<-pe.mergeDone
		return
	}
	pe.flushAll()
	pe.closed = true
	for _, c := range pe.conns {
		c.Close()
	}
	pe.ingestMu.Unlock()
	<-pe.mergeDone
}

// Barrier quiesces the shards — waits until every worker has processed all
// it was sent, then locks out the workers — and runs fn once per shard. Use
// it to mutate shard state (add or remove standing queries, set probe timers)
// or snapshot shard statistics without racing the workers. The driver is
// locked out for the duration; outputs already handed to the merge stage
// keep flowing.
func (pe *ParallelEddy) Barrier(fn func(shard int, s Shard)) {
	pe.ingestMu.Lock()
	defer pe.ingestMu.Unlock()
	if !pe.closed {
		pe.flushAll()
	}
	for i := range pe.shardMu {
		// Wait for the worker to have processed everything handed to it —
		// not merely for an empty queue: a batch it has received but not
		// yet started on is in neither the queue nor the shard.
		for pe.processed[i].Load() < pe.sent[i] {
			runtime.Gosched()
		}
		pe.shardMu[i].Lock()
	}
	for i, s := range pe.shards {
		fn(i, s)
	}
	for i := range pe.shardMu {
		pe.shardMu[i].Unlock()
	}
}

// Settle returns once the merge stage has delivered every output of the
// input handed to the shards. A Barrier quiesces only the shards; call
// Settle after one, the driver still held off, before retiring something
// the Merge callback needs (a standing query's delivery entry).
func (pe *ParallelEddy) Settle() {
	pe.ingestMu.Lock()
	defer pe.ingestMu.Unlock()
	if pe.closed {
		return // Close drained the merge stage
	}
	for i := range pe.handed {
		for pe.handed[i].Load() < pe.sent[i] {
			runtime.Gosched()
		}
	}
	ack := make(chan struct{})
	pe.mergeCh <- parMsg{shard: -1, g: pe.g, sent: append([]int64(nil), pe.sent...), ack: ack}
	<-ack
}

// worker is shard i's goroutine: receive a batch, process each tuple
// through the private shard, label the outputs with the trigger's order
// key, and forward outputs plus the new watermark to the merge stage. The
// shard itself is created synchronously in NewParallel (before any worker
// runs), so Barrier callers never observe a nil shard; ws carries the
// emit-side state shared between the shard's output closure and this loop.
func (pe *ParallelEddy) worker(i int) {
	defer pe.workersWG.Done()
	conn := pe.conns[i]
	ws := pe.wstate[i]
	buf := make([]*tuple.Tuple, pe.cfg.BatchSize)
	var done, procMax int64
	for {
		n := conn.RecvBatch(buf)
		if n == 0 {
			if conn.Drained() {
				pe.mergeCh <- parMsg{shard: i, done: done, procMax: 1<<63 - 1}
				return
			}
			continue
		}
		pe.shardMu[i].Lock()
		for _, t := range buf[:n] {
			if pe.cfg.OrderBy != nil {
				ws.curKey = pe.cfg.OrderBy(t)
				if ws.curKey > procMax {
					procMax = ws.curKey
				}
			}
			pe.shards[i].Ingest(t)
		}
		out := ws.out
		ws.out = nil
		done += int64(n)
		pe.processed[i].Store(done)
		pe.shardMu[i].Unlock()
		pe.mergeCh <- parMsg{shard: i, items: out, done: done, procMax: procMax}
		pe.handed[i].Store(done)
	}
}

// mergeLoop re-serializes shard outputs onto cfg.Merge. In ordered mode
// it buffers items in a min-heap and releases those whose key every
// shard's watermark has passed; otherwise it forwards in arrival order.
func (pe *ParallelEddy) mergeLoop() {
	defer close(pe.mergeDone)
	n := pe.cfg.Workers
	ordered := pe.cfg.OrderBy != nil
	var (
		heap    mergeHeap
		ord     int64
		done    = make([]int64, n)
		sent    = make([]int64, n)
		procMax = make([]int64, n)
		g       int64
	)
	for i := range procMax {
		procMax[i] = -1 << 62
	}
	watermark := func(i int) int64 {
		// An idle shard (everything sent has been processed) rides the
		// driver's watermark: its next trigger key exceeds g.
		if done[i] >= sent[i] {
			if g > procMax[i] {
				return g
			}
		}
		return procMax[i]
	}
	release := func(final bool) {
		var minW int64 = 1<<63 - 1
		if !final {
			for i := 0; i < n; i++ {
				if w := watermark(i); w < minW {
					minW = w
				}
			}
		}
		for heap.Len() > 0 && heap.top().key <= minW {
			it := heap.pop()
			pe.merged.Add(1)
			if pe.cfg.Merge != nil {
				pe.cfg.Merge(it.t)
			}
		}
	}
	for msg := range pe.mergeCh {
		if msg.shard < 0 {
			if msg.g > g {
				g = msg.g
			}
			copy(sent, msg.sent)
			release(false)
			if msg.ack != nil {
				close(msg.ack)
			}
			continue
		}
		if !ordered {
			for _, it := range msg.items {
				pe.merged.Add(1)
				if pe.cfg.Merge != nil {
					pe.cfg.Merge(it.t)
				}
			}
			continue
		}
		for _, it := range msg.items {
			ord++
			heap.push(heapItem{mergeItem: it, ord: ord})
		}
		if int64(heap.Len()) > pe.maxHeld.Load() {
			pe.maxHeld.Store(int64(heap.Len()))
		}
		done[msg.shard] = msg.done
		if msg.procMax > procMax[msg.shard] {
			procMax[msg.shard] = msg.procMax
		}
		release(false)
	}
	release(true)
}

// ParallelStats snapshots a ParallelEddy's activity.
type ParallelStats struct {
	Workers     int
	Ingested    int64 // tuples accepted by the driver
	Merged      int64 // outputs released downstream
	Batches     int64 // shard handoffs
	BatchTuples int64 // tuples across those handoffs (avg = BatchTuples/Batches)
	MaxHeld     int64 // ordered-merge buffer high-water mark
	QueueDepths []int // current per-shard input queue depths
}

// ParStats returns a snapshot of the shard layer's own counters (safe to
// call while running); Stats reports the shard eddies' summed counters.
func (pe *ParallelEddy) ParStats() ParallelStats {
	st := ParallelStats{
		Workers:     pe.cfg.Workers,
		Ingested:    pe.ingested.Load(),
		Merged:      pe.merged.Load(),
		Batches:     pe.batches.Load(),
		BatchTuples: pe.batchTuples.Load(),
		MaxHeld:     pe.maxHeld.Load(),
	}
	for _, c := range pe.conns {
		st.QueueDepths = append(st.QueueDepths, c.Q.Len())
	}
	return st
}

// RegisterMetrics exports the parallel layer's series into reg, labelled
// par="<name>": per-shard queue depths, handoff batch counts and mean
// size, and merge activity. The returned function unregisters them.
func (pe *ParallelEddy) RegisterMetrics(reg *metrics.Registry, name string) func() {
	lbl := fmt.Sprintf(`{par=%q}`, name)
	reg.RegisterFunc("tcq_parallel_workers"+lbl, metrics.KindGauge, func() float64 {
		return float64(pe.cfg.Workers)
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
		return float64(pe.batchTuples.Load()) / float64(b)
	})
	reg.RegisterFunc("tcq_parallel_merge_held_max"+lbl, metrics.KindGauge, func() float64 {
		return float64(pe.maxHeld.Load())
	})
	for i, c := range pe.conns {
		c := c
		slbl := fmt.Sprintf(`{par=%q,shard="%d"}`, name, i)
		reg.RegisterFunc("tcq_parallel_shard_queue_depth"+slbl, metrics.KindGauge, func() float64 {
			return float64(c.Q.Len())
		})
	}
	match := fmt.Sprintf(`par=%q`, name)
	return func() { reg.UnregisterMatching(match) }
}

// heapItem carries the stable arrival order for tie-breaking equal keys.
type heapItem struct {
	mergeItem
	ord int64
}

// mergeHeap is a plain binary min-heap over (key, ord) — small and
// allocation-light, avoiding container/heap interface boxing.
type mergeHeap struct{ a []heapItem }

func (h *mergeHeap) Len() int      { return len(h.a) }
func (h *mergeHeap) top() heapItem { return h.a[0] }
func (h *mergeHeap) less(i, j int) bool {
	if h.a[i].key != h.a[j].key {
		return h.a[i].key < h.a[j].key
	}
	return h.a[i].ord < h.a[j].ord
}

func (h *mergeHeap) push(it heapItem) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *mergeHeap) pop() heapItem {
	it := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a[last] = heapItem{}
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h.a) && h.less(l, s) {
			s = l
		}
		if r < len(h.a) && h.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		h.a[i], h.a[s] = h.a[s], h.a[i]
		i = s
	}
	return it
}
