package main

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Reference evaluators: each workload's query evaluated in plain Go over
// the generated input, with no engine code involved. They fill a dense
// table of expected rows (one slot per possible result) that the verifier
// checks delivered rows against as a multiset: every expected row exactly
// once, nothing else.

// row is one result row in the harness's neutral form: which query it came
// from, the window tag (0 unless windowed), its integer columns, and its
// one float column (AVG), unused fields zero.
type row struct {
	q int
	t int64
	i [4]int64
	f float64
}

type expRow struct {
	row
	want bool  // the reference produces a row in this slot
	obs  bool  // the harness consumes this query's rows (subscribed / fetched)
	seen uint8 // times delivered
}

const (
	phWarm = iota
	phSat
	phPaced
	numPhases
)

// expected is a workload's reference result.
type expected struct {
	w    *workloadSpec
	ph   phases
	rows []expRow
	// slotOf maps a delivered row to its slot, false if the row is one the
	// reference could never produce.
	slotOf func(r *row) (int, bool)
	// lastIdx is the input index of the last tuple contributing to a slot
	// (the tuple whose born the row carries).
	lastIdx func(slot int) int
	nq      int
	// subscribed lists the queries whose rows the harness consumes.
	subscribed []int
}

func (e *expected) phaseOf(slot int) int {
	idx := e.lastIdx(slot)
	switch {
	case idx < e.ph.warmEnd:
		return phWarm
	case idx < e.ph.satEnd:
		return phSat
	}
	return phPaced
}

// counts returns the per-query engine-side result count once inputs
// [0, idxEnd) are fully processed.
func (e *expected) counts(idxEnd int) []int64 {
	out := make([]int64, e.nq)
	for s := range e.rows {
		if e.rows[s].want && e.lastIdx(s) < idxEnd {
			out[e.rows[s].q]++
		}
	}
	return out
}

func identity(slot int) int { return slot }

// bornSlot is slotOf for workloads whose rows carry the born of the one
// input tuple that completes them: the slot is that tuple's index.
func (e *expected) bornSlot(col int) func(r *row) (int, bool) {
	return func(r *row) (int, bool) { return e.ph.idxOfBorn(r.i[col]) }
}

// refFilter: SELECT k, v, born FROM S WHERE v < 500.
func refFilter(in *input) *expected {
	e := &expected{w: in.w, ph: in.ph, rows: make([]expRow, len(in.recs)), nq: 1, lastIdx: identity, subscribed: []int{0}}
	e.slotOf = e.bornSlot(2)
	for i, r := range in.recs {
		if r.c[1] < 500 {
			e.rows[i] = expRow{row: row{i: [4]int64{r.c[0], r.c[1], in.ph.born(i)}}, want: true, obs: true}
		}
	}
	return e
}

// refJoin: SELECT o.k, o.v, p.w, p.born FROM orders o, pays p WHERE o.k = p.k,
// as a symmetric hash join over arrival order. Keys are unique per stream,
// so each side holds at most one tuple per key; the result's slot is the
// index of whichever input arrived second.
func refJoin(in *input) *expected {
	e := &expected{w: in.w, ph: in.ph, rows: make([]expRow, len(in.recs)), nq: 1, lastIdx: identity, subscribed: []int{0}}
	type side struct {
		idx int32
		val int64
	}
	orders := make(map[int64]side, len(in.recs)/2)
	pays := make(map[int64]side, len(in.recs)/2)
	for i, r := range in.recs {
		k := r.c[0]
		if r.stream == 0 {
			orders[k] = side{int32(i), r.c[1]}
			if p, ok := pays[k]; ok {
				e.rows[i] = expRow{row: row{i: [4]int64{k, r.c[1], p.val, in.ph.born(int(p.idx))}}, want: true, obs: true}
			}
			continue
		}
		pays[k] = side{int32(i), r.c[1]}
		if o, ok := orders[k]; ok {
			e.rows[i] = expRow{row: row{i: [4]int64{k, o.val, r.c[1], in.ph.born(i)}}, want: true, obs: true}
		}
	}
	// The row carries the payment's born; when the order arrives second the
	// slot (order index) differs from the born's index. The generator never
	// does that, and slotOf relies on it.
	e.slotOf = e.bornSlot(3)
	return e
}

// refShared: for CQ q, SELECT sym, price, born FROM Q WHERE price >= 100q
// AND price < 100q+100. subscribed are the CQs whose rows the harness
// consumes; the others are checked by engine-side count only.
func refShared(in *input, subscribed []int) *expected {
	e := &expected{w: in.w, ph: in.ph, rows: make([]expRow, len(in.recs)), nq: sharedCQs, lastIdx: identity, subscribed: subscribed}
	e.slotOf = e.bornSlot(2)
	isSub := make([]bool, sharedCQs)
	for _, q := range subscribed {
		isSub[q] = true
	}
	for i, r := range in.recs {
		// The ranges are disjoint and cover [0, 100*sharedCQs): only CQ
		// price/100 can match, and its predicate is evaluated as written.
		q := int(r.c[1] / 100)
		if lo := int64(q * 100); q < sharedCQs && r.c[1] >= lo && r.c[1] < lo+100 {
			e.rows[i] = expRow{row: row{q: q, i: [4]int64{r.c[0], r.c[1], in.ph.born(i)}}, want: true, obs: isSub[q]}
		}
	}
	return e
}

// refWindow: SELECT sym, AVG(price), MAX(born) FROM quotes GROUP BY sym
// for (t = span; ; t += step) { WindowIs(quotes, t-span+1, t) }. ts = idx+1,
// so instance t covers inputs [t-span, t-1] and fires when input t-1 arrives.
// The workload runs it at span 1000, step 100; the tests at sizes a person
// can check.
func refWindow(in *input, span, step int) *expected {
	n := len(in.recs)
	insts := 0
	if n >= span {
		insts = (n-span)/step + 1
	}
	e := &expected{w: in.w, ph: in.ph, rows: make([]expRow, insts*windowSyms), nq: 1, subscribed: []int{0}}
	e.lastIdx = func(slot int) int { return span + (slot/windowSyms)*step - 1 }
	e.slotOf = func(r *row) (int, bool) {
		d := r.t - int64(span)
		if d < 0 || d%int64(step) != 0 || r.i[0] < 0 || r.i[0] >= windowSyms {
			return 0, false
		}
		s := int(d)/step*windowSyms + int(r.i[0])
		return s, s < len(e.rows)
	}
	for inst := 0; inst < insts; inst++ {
		t := span + inst*step
		var sum [windowSyms]float64
		var cnt [windowSyms]int
		var maxBorn [windowSyms]int64
		for idx := t - span; idx < t; idx++ {
			sym := in.recs[idx].c[1]
			b := in.ph.born(idx)
			if cnt[sym] == 0 || b > maxBorn[sym] {
				maxBorn[sym] = b
			}
			sum[sym] += float64(in.recs[idx].c[2]) / 100
			cnt[sym]++
		}
		for sym := 0; sym < windowSyms; sym++ {
			if cnt[sym] == 0 {
				continue
			}
			e.rows[inst*windowSyms+sym] = expRow{
				row:  row{t: int64(t), i: [4]int64{int64(sym), 0, maxBorn[sym]}, f: sum[sym] / float64(cnt[sym])},
				want: true, obs: true,
			}
		}
	}
	return e
}

// chooseSubscribed picks the sharedSubs distinct CQs the harness subscribes to.
func chooseSubscribed(seed uint64) []int {
	picked := make(map[int]bool, sharedSubs)
	var out []int
	for n := uint64(0); len(out) < sharedSubs; n++ {
		h, _ := hash2(seed, 7, n)
		q := int(h % sharedCQs)
		if !picked[q] {
			picked[q] = true
			out = append(out, q)
		}
	}
	return out
}

func sameRow(a, b *row) bool {
	if a.q != b.q || a.t != b.t || a.i != b.i {
		return false
	}
	return math.Abs(a.f-b.f) <= 1e-9*math.Max(1, math.Abs(b.f))
}

// verifier checks delivered rows against the reference as they arrive and
// takes the paced phase's latency samples.
type verifier struct {
	mu  sync.Mutex
	exp *expected

	pacedT0  time.Time // send time of born 0; set before the paced phase starts
	wrong    int       // rows the reference does not produce, or with wrong values
	dup      int       // second and later deliveries of an expected row
	late     int       // paced rows later than lateAfterNs
	firstErr string
	// pacedWant paced rows are expected, pacedSeen have arrived (each
	// counted once): the run waits on their difference before it tallies.
	pacedWant, pacedSeen int

	// lat holds one sample per paced result: a row for the row-at-a-time
	// workloads, a window instance (taken when its last row arrives) for
	// the windowed one. Samples are kept per second of the paced schedule
	// (by scheduled send time): see latencySegMedian.
	lat      [][]float64 // ms
	instSeen []uint8     // windowed: rows seen per instance
	instWant []uint8
}

// newVerifier starts a fresh account of exp: a run that sets up several
// times verifies each set-up's rows from scratch.
func newVerifier(exp *expected) *verifier {
	v := &verifier{exp: exp, lat: make([][]float64, exp.ph.pacedSegments())}
	for s := range exp.rows {
		exp.rows[s].seen = 0
		if exp.rows[s].want && exp.rows[s].obs && exp.phaseOf(s) == phPaced {
			v.pacedWant++
		}
	}
	if exp.w.windowed {
		n := len(exp.rows) / windowSyms
		v.instSeen = make([]uint8, n)
		v.instWant = make([]uint8, n)
		for s := range exp.rows {
			if exp.rows[s].want {
				v.instWant[s/windowSyms]++
			}
		}
	}
	return v
}

func (v *verifier) fail(format string, args ...interface{}) {
	v.wrong++
	if v.firstErr == "" {
		v.firstErr = fmt.Sprintf(format, args...)
	}
}

// observe checks one delivered row received at recv.
func (v *verifier) observe(r *row, recv time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	slot, ok := v.exp.slotOf(r)
	if !ok {
		v.fail("row %+v matches no reference slot", *r)
		return
	}
	e := &v.exp.rows[slot]
	if !e.want || !e.obs || !sameRow(r, &e.row) {
		v.fail("row %+v, reference has %+v (want=%v)", *r, e.row, e.want)
		return
	}
	if e.seen > 0 {
		v.dup++
		if e.seen < 255 {
			e.seen++
		}
		return
	}
	e.seen = 1
	idx := v.exp.lastIdx(slot)
	if idx < v.exp.ph.satEnd {
		return
	}
	v.pacedSeen++
	if v.instSeen != nil {
		inst := slot / windowSyms
		v.instSeen[inst]++
		if v.instSeen[inst] < v.instWant[inst] {
			return
		}
	}
	sent := v.pacedT0.Add(time.Duration(v.exp.ph.born(idx)))
	d := recv.Sub(sent)
	if d > lateAfterNs {
		v.late++
	}
	seg := (idx - v.exp.ph.satEnd) * len(v.lat) / (v.exp.ph.total - v.exp.ph.satEnd)
	v.lat[seg] = append(v.lat[seg], float64(d)/1e6)
}

// latencyAll returns every paced latency sample: the ungated
// paced.latency_p*_all_ms are percentiles of it, so a stall is charged to
// every tuple it delays.
func (v *verifier) latencyAll() ([]float64, int) {
	var all []float64
	for _, seg := range v.lat {
		all = append(all, seg...)
	}
	return all, len(all)
}

// latencySegMedian returns the median, over the seconds of the paced phase,
// of each second's p-th percentile: the gated latency_p50_ms and
// latency_p95_ms. Percentiles of all samples cannot be gated on the reference
// box: one collector cycle or one machine dip decides whether 3% or 8% of a
// phase's samples are late, and a slow few seconds move the median of a 10 s
// phase; over ten seeds the p95 of all samples repeated within 0.3..3.9
// (interquartile / median) and the join's p50 within 0.19 where the median
// second's p95 repeated within 0.08. The median second repeats, and still
// moves with any stall that recurs in at least half the seconds; a stall
// rarer than that shows in paced.latency_p*_all_ms only.
func (v *verifier) latencySegMedian(p float64) float64 {
	var per []float64
	for _, seg := range v.lat {
		if len(seg) > 0 {
			per = append(per, percentile(seg, p))
		}
	}
	return median(per)
}

// tally is the verifier's final account per phase.
type tally struct {
	expected [numPhases]int // rows the harness should have received
	missing  [numPhases]int
	wrong    int
	dup      int
	late     int
	firstErr string
}

func (v *verifier) finish() tally {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := tally{wrong: v.wrong, dup: v.dup, late: v.late, firstErr: v.firstErr}
	for s := range v.exp.rows {
		e := &v.exp.rows[s]
		if !e.want || !e.obs {
			continue
		}
		p := v.exp.phaseOf(s)
		t.expected[p]++
		if e.seen == 0 {
			t.missing[p]++
		}
	}
	return t
}
