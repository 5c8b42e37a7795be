// Package cluster implements the paper's §4.3 roadmap item "Cluster and
// Distributed Implementations": the shared CQ engine scaled across a
// simulated shared-nothing cluster by Flux. Every node hosts a full
// replica of the standing-query set (a cacq.Engine); input tuples are
// hash-partitioned on a declared column, so each node evaluates the whole
// query set over its partition and the union of node outputs equals
// single-node execution. Join queries require the partition column to be
// the join key (the classic co-partitioning requirement); Flux's online
// repartitioning then moves bucket state between nodes mid-stream.
//
// Fault-tolerance scope: with Replicate on, selection results are
// exactly-once across failures (selections are stateless, so a promoted
// standby continues identically). Join queries keep producing after a
// failover, but matches that would have paired new tuples with the dead
// node's historical build state are not re-created — promoting shadow
// join state into the primary engine is future work, as is per-bucket
// segregation of SteM state for join migration.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"telegraphcq/internal/cacq"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/flux"
	"telegraphcq/internal/tuple"
)

// Config parameterizes a parallel CQ engine.
type Config struct {
	// Nodes and Buckets configure the Flux cluster.
	Nodes   int
	Buckets int
	// Layout is the shared query layout (same on every node).
	Layout *tuple.Layout
	// PartitionCol is the wide-row column tuples are hash-partitioned
	// on. For join workloads it must be the join key of every shared
	// JoinSpec, or matches would land on different nodes.
	PartitionCol int
	// Joins are the shared equijoin edges (see cacq.JoinSpec).
	Joins []cacq.JoinSpec
	// Replicate enables Flux process-pair replication. Replicated
	// standby applications are suppressed from output, so results stay
	// exactly-once while state survives failures.
	Replicate bool
	// Output receives every delivered (queryID, tuple) pair; it must be
	// goroutine-safe. Nil collects counts only.
	Output func(queryID int, t *tuple.Tuple)
}

// ParallelCQ is a Flux-partitioned shared CQ engine.
type ParallelCQ struct {
	cfg  Config
	fx   *flux.Flux
	mu   sync.Mutex
	defs []queryDef // applied to every node engine, in order

	// keyFor maps stream index -> base-coordinate partition-key column
	// (-1 when the stream carries no partitionable column). The stream
	// owning PartitionCol uses it directly; streams joined to it through
	// an equijoin edge hash their side of the edge, so matching tuples
	// co-locate.
	keyFor []int

	delivered []atomic.Int64 // per query id
}

type queryDef struct {
	footprint  tuple.SourceSet
	selections []expr.Predicate
	project    []int
}

// cqNode hosts one node's engine replica. Primary applications run in
// eng; standby (process-pair) applications run in shadow with output
// suppressed, so results stay exactly-once while the shadow keeps warm
// state for failover of stateless (selection-only) workloads.
type cqNode struct {
	p             *ParallelCQ
	eng           *cacq.Engine
	shadow        *cacq.Engine
	applied       int // defs applied to eng
	appliedShadow int // defs applied to shadow
}

// nodeSeq hands out distinct policy seeds across cluster nodes (and across
// repeated clusters in one process), so node eddies adapt independently.
var nodeSeq atomic.Int64

// New starts the cluster.
func New(cfg Config) (*ParallelCQ, error) {
	if cfg.Layout == nil {
		return nil, fmt.Errorf("cluster: nil layout")
	}
	if cfg.PartitionCol < 0 || cfg.PartitionCol >= cfg.Layout.Width() {
		return nil, fmt.Errorf("cluster: partition column %d out of range", cfg.PartitionCol)
	}
	for _, j := range cfg.Joins {
		if j.ColA != cfg.PartitionCol && j.ColB != cfg.PartitionCol {
			return nil, fmt.Errorf(
				"cluster: join %d–%d is not co-partitioned with column %d: matches would split across nodes",
				j.ColA, j.ColB, cfg.PartitionCol)
		}
	}
	// A grouped filter per column plus a SteM per join side bounds what any
	// replicated query can add to a node's eddy, so AddQuery cannot fail on
	// a node after the definition was accepted.
	if err := eddy.CheckModuleCount(cfg.Layout.Width() + 2*len(cfg.Joins)); err != nil {
		return nil, err
	}
	p := &ParallelCQ{cfg: cfg}
	p.keyFor = make([]int, cfg.Layout.Streams())
	for s := range p.keyFor {
		p.keyFor[s] = -1
	}
	owner := cfg.Layout.Owner(cfg.PartitionCol)
	p.keyFor[owner] = cfg.PartitionCol - cfg.Layout.Offsets[owner]
	for _, j := range cfg.Joins {
		if j.ColA == cfg.PartitionCol {
			sb := cfg.Layout.Owner(j.ColB)
			p.keyFor[sb] = j.ColB - cfg.Layout.Offsets[sb]
		}
		if j.ColB == cfg.PartitionCol {
			sa := cfg.Layout.Owner(j.ColA)
			p.keyFor[sa] = j.ColA - cfg.Layout.Offsets[sa]
		}
	}
	p.fx = flux.New(flux.Config{
		Nodes:     cfg.Nodes,
		Buckets:   cfg.Buckets,
		KeyCol:    0, // routed tuples are rewrapped with the key first
		Replicate: cfg.Replicate,
	}, func() flux.Consumer {
		// Per-node seeds: each node's eddy (and its shadow replica) adapts
		// independently instead of every node sharing one hard-coded seed.
		// Odd/even split keeps primary and shadow lotteries distinct.
		seed := nodeSeq.Add(1) * 2
		eng, err := cacq.New(cfg.Layout, cfg.Joins, eddy.NewLotteryPolicy(seed))
		if err != nil {
			panic(err) // unreachable: validated before flux.New below
		}
		n := &cqNode{p: p, eng: eng}
		if cfg.Replicate {
			shadow, err := cacq.New(cfg.Layout, cfg.Joins, eddy.NewLotteryPolicy(seed+1))
			if err != nil {
				panic(err)
			}
			n.shadow = shadow
		}
		return n
	})
	return p, nil
}

// AddQuery registers a standing query on every node replica. Queries must
// be added before data flows or between quiesced batches (the paper's
// dynamic folding happens inside each node's engine; replicating the
// definition itself is a control-plane step here).
func (p *ParallelCQ) AddQuery(footprint tuple.SourceSet, selections []expr.Predicate, project []int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := len(p.defs)
	p.defs = append(p.defs, queryDef{footprint: footprint, selections: selections, project: project})
	p.delivered = append(p.delivered, atomic.Int64{})
	return id, nil
}

// syncQueries applies any new definitions to one engine. It runs inside
// the node's serial Apply path, so no locking beyond the defs read.
func (n *cqNode) syncQueries(eng *cacq.Engine, applied *int, emit bool) {
	n.p.mu.Lock()
	defs := n.p.defs[*applied:]
	base := *applied
	n.p.mu.Unlock()
	for i, d := range defs {
		id := base + i
		var out func(*tuple.Tuple)
		if emit {
			out = func(t *tuple.Tuple) {
				n.p.delivered[id].Add(1)
				if n.p.cfg.Output != nil {
					n.p.cfg.Output(id, t)
				}
			}
		}
		q, err := eng.AddQuery(d.footprint, d.selections, d.project, out)
		if err != nil {
			panic(fmt.Sprintf("cluster: replicating query %d: %v", id, err))
		}
		if q.ID != id {
			panic(fmt.Sprintf("cluster: node query id drift: %d != %d", q.ID, id))
		}
		*applied++
	}
}

// routeEnvelope is the wire format through Flux: the partition key value
// first (Flux hashes column 0), then stream index and the base values.
func envelope(stream int, key tuple.Value, base *tuple.Tuple) *tuple.Tuple {
	t := tuple.New(append([]tuple.Value{key, tuple.Int(int64(stream))}, base.Vals...)...)
	t.TS = base.TS
	t.Seq = base.Seq
	return t
}

// Apply implements flux.Consumer.
func (n *cqNode) Apply(_ int, t *tuple.Tuple) []*tuple.Tuple {
	n.syncQueries(n.eng, &n.applied, true)
	stream, base := unwrap(t)
	n.eng.Ingest(stream, base)
	return nil
}

// ApplyReplica implements flux.ReplicaAware: standby copies feed the
// shadow engine whose output is suppressed.
func (n *cqNode) ApplyReplica(_ int, t *tuple.Tuple) {
	if n.shadow == nil {
		return
	}
	n.syncQueries(n.shadow, &n.appliedShadow, false)
	stream, base := unwrap(t)
	n.shadow.Ingest(stream, base)
}

func unwrap(t *tuple.Tuple) (int, *tuple.Tuple) {
	stream := int(t.Vals[1].AsInt())
	base := tuple.New(t.Vals[2:]...)
	base.TS = t.TS
	base.Seq = t.Seq
	return stream, base
}

// ExtractState implements flux.Consumer. Join state is not yet
// bucket-segregated, so migration is only supported for selection-only
// workloads (which carry no per-bucket state).
func (n *cqNode) ExtractState(int) []*tuple.Tuple {
	if len(n.p.cfg.Joins) > 0 {
		panic("cluster: bucket migration with join state is not supported")
	}
	return nil
}

// InstallState implements flux.Consumer.
func (n *cqNode) InstallState(int, []*tuple.Tuple) {}

// BucketSize implements flux.Consumer.
func (n *cqNode) BucketSize(int) int { return 0 }

// Ingest partitions one base tuple of the given stream across the
// cluster, hashing the stream's partition-key column (the declared column
// for its owner stream; the matching join column for co-partitioned
// streams).
func (p *ParallelCQ) Ingest(stream int, base *tuple.Tuple) error {
	if stream < 0 || stream >= len(p.keyFor) {
		return fmt.Errorf("cluster: stream index %d out of range", stream)
	}
	keyIdx := p.keyFor[stream]
	if keyIdx < 0 {
		return fmt.Errorf("cluster: stream %d has no partition key (not joined to column %d)",
			stream, p.cfg.PartitionCol)
	}
	if keyIdx >= len(base.Vals) {
		return fmt.Errorf("cluster: tuple arity %d lacks key column %d", len(base.Vals), keyIdx)
	}
	p.fx.Route(envelope(stream, base.Vals[keyIdx], base))
	return nil
}

// WaitIdle blocks until the cluster has drained.
func (p *ParallelCQ) WaitIdle(timeout time.Duration) bool { return p.fx.WaitIdle(timeout) }

// Delivered returns the number of results delivered for a query across
// all nodes.
func (p *ParallelCQ) Delivered(queryID int) int64 {
	if queryID < 0 || queryID >= len(p.delivered) {
		return 0
	}
	return p.delivered[queryID].Load()
}

// Rebalance triggers Flux's online repartitioning (selection-only
// workloads; join state migration is rejected by the consumer).
func (p *ParallelCQ) Rebalance(factor float64) int { return p.fx.Rebalance(factor) }

// Fail kills a node; with replication on, its buckets fail over.
func (p *ParallelCQ) Fail(node int) { p.fx.Fail(node) }

// Flux exposes the underlying exchange (stats, loads).
func (p *ParallelCQ) Flux() *flux.Flux { return p.fx }

// Close shuts the cluster down.
func (p *ParallelCQ) Close() { p.fx.Close() }
