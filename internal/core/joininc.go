package core

import (
	"sync/atomic"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// incJoinState is the incremental sliding-window join fast path: instead of
// re-joining both windows for every instance (O(|w1|·|w2|) each), arriving
// tuples build into their own SteM and probe the other side's — the
// symmetric-join dataflow of Fig. 2 — and the merged matches are
// materialized in a time-ordered buffer. A window instance then just
// selects the matches whose two sides fall inside its two windows.
//
// Requirements (checked at plan time): exactly two FROM positions, both
// windowed, physical time with a schema timestamp column on each side (so
// per-side membership is recoverable from the merged row), and at least
// one equality join edge for the SteM hash index.
type incJoinState struct {
	rt    *windowRuntime
	stems [2]*stem.SteM
	// preds[p] verifies candidates when probing stems[p] (LeftCol on the
	// probing side, RightCol stored in stems[p]).
	preds [2][]expr.JoinPredicate
	// probeKey[p] is the probing tuple's wide column hashed against
	// stems[p]'s index.
	probeKey [2]int
	// timeCol[p] is the wide column carrying side p's timestamp.
	timeCol [2]int
	// matches holds merged rows keyed by max(side times) == Tuple.TS.
	matches *window.Buffer

	// deltaLo/deltaHi bound time0 - time1 for any pair that can co-occur
	// in some instance's windows: both windows slide with t, so the
	// feasible band is [lo0-hi1, hi0-lo1] of the window offsets. Pairs
	// outside the band are never materialized, which keeps the match
	// buffer proportional to the live window even under bursty drains.
	deltaLo, deltaHi int64

	// produced counts materialized matches (atomic: telemetry reads it
	// while the DU steps).
	produced atomic.Int64
}

// newIncJoin wires the fast path, or returns nil when the plan shape does
// not qualify (the caller falls back to generic per-instance evaluation).
func newIncJoin(rt *windowRuntime) *incJoinState {
	plan := rt.q.Plan
	if len(plan.Entries) != 2 || rt.winFor[0] < 0 || rt.winFor[1] < 0 {
		return nil
	}
	if plan.TimeKind != window.Physical {
		return nil
	}
	if plan.Loop.Step <= 0 {
		return nil
	}
	for _, e := range plan.Entries {
		if e.TimeCol < 0 {
			return nil
		}
	}
	hasEq := false
	for _, j := range plan.Joins {
		if j.Op == expr.Eq {
			hasEq = true
		}
	}
	if !hasEq || len(plan.Joins) == 0 {
		return nil
	}
	// Pure sliding windows only: both ends of both windows must track t,
	// so the feasible pairing band below is valid for every instance.
	w0 := plan.Loop.Windows[rt.winFor[0]]
	w1 := plan.Loop.Windows[rt.winFor[1]]
	for _, w := range []window.WindowIs{w0, w1} {
		if w.Left.Coeff != 1 || w.Right.Coeff != 1 {
			return nil
		}
	}

	s := &incJoinState{rt: rt, matches: window.NewBuffer(window.Physical)}
	s.deltaLo = w0.Left.Off - w1.Right.Off
	s.deltaHi = w0.Right.Off - w1.Left.Off
	layout := plan.Layout
	for p := 0; p < 2; p++ {
		s.timeCol[p] = layout.Offsets[p] + plan.Entries[p].TimeCol
		s.probeKey[p] = -1
	}
	keyCol := [2]int{-1, -1} // stored-side index column per SteM
	for _, j := range plan.Joins {
		// Orient the edge for each SteM: stems[p] stores side p, so the
		// predicate's RightCol must live on side p.
		for p := 0; p < 2; p++ {
			var stored, probing int
			if layout.Owner(j.ColA) == p {
				stored, probing = j.ColA, j.ColB
			} else {
				stored, probing = j.ColB, j.ColA
			}
			op := j.Op
			if stored == j.ColA {
				// Edge reads valA op valB; probe is the B side:
				// probe(ColB) flip(op) stored(ColA).
				op = j.Op.Flip()
			}
			s.preds[p] = append(s.preds[p], expr.JoinPredicate{
				LeftCol: probing, Op: op, RightCol: stored,
			})
			if j.Op == expr.Eq && keyCol[p] < 0 {
				keyCol[p], s.probeKey[p] = stored, probing
			}
		}
	}
	for p := 0; p < 2; p++ {
		s.stems[p] = stem.New(plan.Entries[p].Name, tuple.SingleSource(p), layout,
			stem.WithIndex(keyCol[p]), stem.WithWindowEviction(window.Physical))
	}
	return s
}

// ingest processes one admitted wide row of position pos: build, probe the
// opposite SteM, and materialize matches.
func (s *incJoinState) ingest(pos int, w *tuple.Tuple) {
	if err := s.stems[pos].Build(w); err != nil {
		return // spans mismatch cannot happen; defensive
	}
	other := 1 - pos
	for _, m := range s.stems[other].Probe(w, s.probeKey[other], s.preds[other]) {
		delta := m.Vals[s.timeCol[0]].AsInt() - m.Vals[s.timeCol[1]].AsInt()
		if delta < s.deltaLo || delta > s.deltaHi {
			continue // no instance can hold both sides together
		}
		s.matches.Add(m)
		s.produced.Add(1)
	}
}

// rowsAt selects the instance's result set from the materialized matches:
// rows whose two sides both fall inside their respective windows.
func (s *incJoinState) rowsAt(inst window.Instance) []*tuple.Tuple {
	iv0 := inst.Windows[s.rt.winFor[0]]
	iv1 := inst.Windows[s.rt.winFor[1]]
	lo, hi := iv0.Left, iv0.Right
	if iv1.Left < lo {
		lo = iv1.Left
	}
	if iv1.Right > hi {
		hi = iv1.Right
	}
	var rows []*tuple.Tuple
	cand := s.matches.Range(lo, hi)
	s.rt.scanned.Add(int64(len(cand)))
	for _, m := range cand {
		t0 := m.Vals[s.timeCol[0]].AsInt()
		t1 := m.Vals[s.timeCol[1]].AsInt()
		if iv0.Contains(t0) && iv1.Contains(t1) {
			rows = append(rows, m)
		}
	}
	return rows
}

// evict drops SteM candidates and matches no future instance can use. A
// match is keyed by the max of its side times, so pairs with one side
// already dead linger at most one window span past usefulness — bounded,
// and filtered out by rowsAt's exact membership check.
func (s *incJoinState) evict(inst window.Instance) {
	iv0 := inst.Windows[s.rt.winFor[0]]
	iv1 := inst.Windows[s.rt.winFor[1]]
	s.rt.held[0].Add(-int64(s.stems[0].Evict(iv0.Left)))
	s.rt.held[1].Add(-int64(s.stems[1].Evict(iv1.Left)))
	min := iv0.Left
	if iv1.Left < min {
		min = iv1.Left
	}
	s.matches.Evict(min)
}
