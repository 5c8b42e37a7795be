// Package ownercheck is the tcqlint fixture for recycler-ownership
// discipline: a variable handed to Pool.Put is dead until reassigned, and
// releases and ownership transfers that hide one call down still kill or
// claim the value in the caller.
package ownercheck

import "telegraphcq/internal/tuple"

// recycle returns t to the pool; its summary records that slot 1 dies.
func recycle(p *tuple.Pool, t *tuple.Tuple) {
	p.Put(t)
}

// recycleDeep returns t to the pool two calls down; the summary composes.
func recycleDeep(p *tuple.Pool, t *tuple.Tuple) {
	recycle(p, t)
}

// sink retains every tuple handed to it: its summary records that slot 1
// is stored (ownership may transfer).
type sink struct {
	kept []*tuple.Tuple
}

func (s *sink) keep(t *tuple.Tuple) {
	s.kept = append(s.kept, t)
}

// fresh returns an owned tuple; its summary records ReturnsOwned.
func fresh(p *tuple.Pool) *tuple.Tuple {
	return p.Get(2)
}

// useAfterCalleeRelease reads the tuple after recycle's Put killed it.
func useAfterCalleeRelease(p *tuple.Pool) int {
	t := p.Get(2)
	recycle(p, t)
	return len(t.Vals) // want `t is used after ownercheck\.recycle released it`
}

// useAfterDeepRelease shows the summary composing through two calls.
func useAfterDeepRelease(p *tuple.Pool) int {
	t := p.Get(2)
	recycleDeep(p, t)
	return len(t.Vals) // want `t is used after ownercheck\.recycleDeep released it`
}

// doubleReleaseThroughCallee hands the dead tuple straight back to the
// pool: the second release is a use of a released value.
func doubleReleaseThroughCallee(p *tuple.Pool) {
	t := p.Get(1)
	recycle(p, t)
	p.Put(t) // want `t is used after ownercheck\.recycle released it`
}

// releaseAfterTransfer frees a tuple the sink may now own.
func releaseAfterTransfer(p *tuple.Pool, s *sink) {
	t := p.Get(1)
	s.keep(t)
	p.Put(t) // want `Pool\.Put releases t after ownercheck\.sink\.keep may have taken ownership`
}

// discardedProducer drops the owned result on the floor.
func discardedProducer(p *tuple.Pool) {
	p.Get(3) // want `result of Pool\.Get is discarded: the owned value leaks`
}

// blankProducer binds the owned result to _, which is the same leak.
func blankProducer(p *tuple.Pool) {
	_ = p.Get(1) // want `owned result of Pool\.Get is assigned to _: the value leaks`
}

// overwrittenBeforeUse rebinds the variable before the first value is
// ever read: the first tuple leaks.
func overwrittenBeforeUse(p *tuple.Pool) {
	t := p.Get(1) // want `t is reassigned before the owned result of Pool\.Get is used: the first value leaks`
	t = p.Get(2)
	p.Put(t)
}

// leakThroughReturnsOwned shows the producer set growing through
// summaries: fresh is owned because Pool.Get is.
func leakThroughReturnsOwned(p *tuple.Pool) {
	t := fresh(p) // want `t is reassigned before the owned result of fresh is used`
	t = fresh(p)
	p.Put(t)
}

// --- negative cases: the engine's allowed idioms stay silent ---

// deferredRelease is the standard cleanup idiom.
func deferredRelease(p *tuple.Pool) int {
	t := p.Get(1)
	defer recycle(p, t)
	return len(t.Vals)
}

// conditionalTransfer branches on whether the transfer happened: the
// release on the failure path is the correct cleanup, not a double free.
func conditionalTransfer(p *tuple.Pool, q chan *tuple.Tuple) {
	t := p.Get(1)
	select {
	case q <- t:
	default:
		if !tryHand(q, t) {
			p.Put(t)
		}
	}
}

func tryHand(q chan *tuple.Tuple, t *tuple.Tuple) bool {
	select {
	case q <- t:
		return true
	default:
		return false
	}
}

// reassigned revives the variable with a fresh value before reading it.
func reassigned(p *tuple.Pool) int {
	t := p.Get(1)
	recycle(p, t)
	t = p.Get(2)
	return len(t.Vals)
}

// returnedOwned passes ownership up: the caller inherits the duty.
func returnedOwned(p *tuple.Pool) *tuple.Tuple {
	t := p.Get(4)
	return t
}

// storedOwned parks the value in a sink: stored, not leaked.
func storedOwned(p *tuple.Pool, s *sink) {
	t := p.Get(1)
	s.keep(t)
}

// The direct kills: the same discipline with the release call in plain
// sight.

// useAfterPut reads the recycled tuple; the read is a finding.
func useAfterPut(p *tuple.Pool) int {
	t := p.Get(2)
	p.Put(t)
	return len(t.Vals) // want `t is used after Pool\.Put released it \(use-after-release\)`
}

// doublePut hands the same tuple back twice; the second Put is a use.
func doublePut(p *tuple.Pool) {
	t := p.Get(1)
	p.Put(t)
	p.Put(t) // want `t is used after Pool\.Put released it \(use-after-release\)`
}

// guarded is the engine's guard-and-bail idiom: the Put sits in a block
// that transfers control, so later iterations (and the code after the if)
// see a fresh binding and stay clean.
func guarded(p *tuple.Pool, ts []*tuple.Tuple) int {
	n := 0
	for _, t := range ts {
		if t.TS < 0 {
			p.Put(t)
			continue
		}
		n += len(t.Vals)
	}
	return n
}

// reassignedAfterPut overwrites the variable before reading it again.
func reassignedAfterPut(p *tuple.Pool) int {
	t := p.Get(1)
	p.Put(t)
	t = p.Get(3)
	return len(t.Vals)
}

// deferredPut recycles at return, after every read.
func deferredPut(p *tuple.Pool) int {
	t := p.Get(1)
	defer p.Put(t)
	return len(t.Vals)
}

// releaseThenReget is the grow-the-row idiom: the Put sits in a block that
// falls through, and the variable is reassigned from the pool before the
// next read.
func releaseThenReget(p *tuple.Pool, need int) int {
	t := p.Get(2)
	if len(t.Vals) < need {
		p.Put(t)
		t = p.Get(need)
	}
	return len(t.Vals)
}

// guardedRelease confines the kill to a block that returns, the same shape
// guarded uses with continue.
func guardedRelease(p *tuple.Pool, t *tuple.Tuple) int {
	if t.TS < 0 {
		p.Put(t)
		return 0
	}
	return len(t.Vals)
}
