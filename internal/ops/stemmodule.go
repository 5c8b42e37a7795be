package ops

import (
	"fmt"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// SteMModule attaches a SteM to an eddy. Tuples spanning exactly the SteM's
// stream set are builds; tuples spanning a disjoint set that share a join
// predicate with the stored streams are probes producing merged matches.
// Together, one eddy and one SteMModule per stream implement an adaptive
// N-way symmetric join (§2.2, Fig. 2).
type SteMModule struct {
	stem   *stem.SteM
	layout *tuple.Layout
	// preds relate probe columns (LeftCol) to stored columns (RightCol).
	preds []expr.JoinPredicate
	// probeSources caches which probe source sets are connected by some
	// predicate (to avoid Cartesian routing in multi-way joins).
	leftOwners []tuple.SourceSet
	// eqPred indexes the equality predicate used for hash probing, or -1.
	eqPred int

	// probePreds is the per-batch predicate selection and out the batch's
	// matches, both reused across ProcessBatch calls so probing allocates
	// nothing per batch. The eddy copies the matches out of out before it
	// calls the module again (eddy.enqueueRuns).
	probePreds []expr.JoinPredicate
	out        []*tuple.Tuple
}

// NewSteMModule wraps st. preds must have RightCol owned by st's stream set
// and LeftCol owned by other streams. If an equality predicate exists and
// st was built with a matching index column, probes use the hash index.
func NewSteMModule(st *stem.SteM, layout *tuple.Layout, preds []expr.JoinPredicate) *SteMModule {
	m := &SteMModule{stem: st, layout: layout, preds: preds, eqPred: -1}
	m.leftOwners = make([]tuple.SourceSet, len(preds))
	for i, p := range preds {
		m.leftOwners[i] = layout.OwnerSet(p.LeftCol)
		if p.Op == expr.Eq && m.eqPred < 0 {
			m.eqPred = i
		}
	}
	return m
}

// SteM returns the wrapped state module.
func (m *SteMModule) SteM() *stem.SteM { return m.stem }

// Name implements eddy.Module. A SteM front over a shared arrangement
// reports as Arr(...) so introspection (tcq.stats, EXPLAIN, TOP) shows
// which state is shared.
func (m *SteMModule) Name() string {
	if m.stem.Shared() {
		return "Arr(" + m.stem.Name() + ")"
	}
	return "SteM(" + m.stem.Name() + ")"
}

// BuildsFor implements eddy.Builder.
func (m *SteMModule) BuildsFor(src tuple.SourceSet) bool { return src == m.stem.Spans() }

// AppliesTo implements eddy.Module: builds always apply; probes apply only
// when at least one join predicate connects the probe's streams to the
// stored streams (preventing Cartesian detours in multi-way joins).
func (m *SteMModule) AppliesTo(src tuple.SourceSet) bool {
	if src == m.stem.Spans() {
		return true
	}
	if src.Overlaps(m.stem.Spans()) {
		return false
	}
	for _, lo := range m.leftOwners {
		if src.Contains(lo) {
			return true
		}
	}
	return false
}

// ProcessBatch implements eddy.Module. A lineage-homogeneous batch is
// either all builds or all probes; builds insert in one BuildBatch call and
// probes share one predicate selection and one ProbeBatch call.
func (m *SteMModule) ProcessBatch(b *tuple.Batch) ([]*tuple.Tuple, int) {
	ts := b.Tuples
	if len(ts) == 0 {
		return nil, 0
	}
	if ts[0].Source == m.stem.Spans() {
		if err := m.stem.BuildBatch(ts); err != nil {
			panic(fmt.Sprintf("ops: %v", err)) // routing invariant violated
		}
		return nil, len(ts)
	}
	m.probePreds = m.probePreds[:0]
	probeKey := -1
	for i, p := range m.preds {
		if ts[0].Source.Contains(m.leftOwners[i]) {
			m.probePreds = append(m.probePreds, p)
			if i == m.eqPred {
				probeKey = p.LeftCol
			}
		}
	}
	m.out = m.stem.ProbeBatch(ts, probeKey, m.probePreds, m.out[:0])
	return m.out, len(ts)
}

// Evict drops stored tuples older than the window watermark.
func (m *SteMModule) Evict(watermark int64) int { return m.stem.Evict(watermark) }

// BuildSteMPair constructs the two indexed SteMs plus modules implementing
// a windowed symmetric hash equijoin between base streams a and b on the
// given wide columns, the configuration of Fig. 2.
func BuildSteMPair(layout *tuple.Layout, a, b int, colA, colB int, kind window.TimeKind) (*SteMModule, *SteMModule) {
	stA := stem.New(layout.Schemas[a].Relation, tuple.SingleSource(a), layout,
		stem.WithIndex(colA), stem.WithWindowEviction(kind))
	stB := stem.New(layout.Schemas[b].Relation, tuple.SingleSource(b), layout,
		stem.WithIndex(colB), stem.WithWindowEviction(kind))
	// Probing SteM A: probe tuples span b, so Left is b's column.
	modA := NewSteMModule(stA, layout, []expr.JoinPredicate{{LeftCol: colB, Op: expr.Eq, RightCol: colA}})
	modB := NewSteMModule(stB, layout, []expr.JoinPredicate{{LeftCol: colA, Op: expr.Eq, RightCol: colB}})
	return modA, modB
}
