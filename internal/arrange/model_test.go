package arrange

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"telegraphcq/internal/storage"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// sliceModel is the store an arrangement replaces: clones of the inserted
// rows in arrival order, each with its lineage, scanned in window-time order
// (ties in arrival order) and bucketed by the key column's hash.
type sliceModel struct {
	opts Options
	rows []*tuple.Tuple
}

func (m *sliceModel) insert(ts []*tuple.Tuple) {
	for _, t := range ts {
		m.rows = append(m.rows, t.Clone())
	}
}

func (m *sliceModel) time(t *tuple.Tuple) int64 {
	if m.opts.TimeKind == window.Logical {
		return t.Seq
	}
	return t.TS
}

func (m *sliceModel) all() []*tuple.Tuple {
	out := slices.Clone(m.rows)
	if m.opts.Windowed {
		sort.SliceStable(out, func(i, j int) bool { return m.time(out[i]) < m.time(out[j]) })
	}
	return out
}

func (m *sliceModel) bucket(hash uint64) []*tuple.Tuple {
	if m.opts.KeyCol < 0 {
		return m.all()
	}
	var out []*tuple.Tuple
	for _, t := range m.rows {
		if t.Vals[m.opts.KeyCol].Hash() == hash {
			out = append(out, t)
		}
	}
	return out
}

func (m *sliceModel) evict(watermark int64) int {
	if !m.opts.Windowed {
		return 0
	}
	kept := m.rows[:0]
	for _, t := range m.rows {
		if m.time(t) >= watermark {
			kept = append(kept, t)
		}
	}
	n := len(m.rows) - len(kept)
	m.rows = kept
	return n
}

func (m *sliceModel) scrub(mask tuple.Bitset) {
	for _, t := range m.rows {
		for i := range mask {
			if i < len(t.Queries) {
				t.Queries[i] &^= mask[i]
			}
		}
	}
}

// modelKeys are the key column's values: duplicates, and hash collisions
// between unequal values — Int(3) and Float(3) hash alike, and so do every
// bool, every time, NULL-free empty strings, and the two largest int64s.
var modelKeys = []tuple.Value{
	tuple.Int(1), tuple.Int(2), tuple.Int(3), tuple.Float(3), tuple.Float(math.Copysign(0, -1)),
	tuple.Int(0), tuple.Bool(true), tuple.Bool(false), tuple.Value{K: tuple.KindTime, I: 9},
	tuple.String_(""), tuple.String_("k"), tuple.Int(math.MaxInt64), tuple.Int(math.MaxInt64 - 1),
	tuple.Null,
}

// randomValue draws one value of any kind; floats include NaN and -0.
func randomValue(rng *rand.Rand) tuple.Value {
	switch rng.Intn(6) {
	case 0:
		return tuple.Int([]int64{0, -1, math.MaxInt64, math.MinInt64, rng.Int63n(1000) - 500}[rng.Intn(5)])
	case 1:
		return tuple.Float([]float64{0, math.Copysign(0, -1), math.Inf(-1), math.NaN(), math.MaxFloat64, rng.NormFloat64()}[rng.Intn(6)])
	case 2:
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return tuple.String_(string(b))
	case 3:
		return tuple.Bool(rng.Intn(2) == 0)
	case 4:
		return tuple.Value{K: tuple.KindTime, I: rng.Int63() - rng.Int63()}
	default:
		return tuple.Null
	}
}

// sameStored reports whether a decoded row carries the model row's Seq, TS,
// values (floats by bits) and lineage (nil distinct from empty).
func sameStored(got, want *tuple.Tuple) bool {
	if got.Seq != want.Seq || got.TS != want.TS || len(got.Vals) != len(want.Vals) ||
		(got.Queries == nil) != (want.Queries == nil) || !slices.Equal(got.Queries, want.Queries) {
		return false
	}
	for i, w := range want.Vals {
		g := got.Vals[i]
		if g.K != w.K || g.I != w.I || g.S != w.S || math.Float64bits(g.F) != math.Float64bits(w.F) {
			return false
		}
	}
	return true
}

// TestArrangementMatchesSliceModel drives the encoded store and a slice
// model that clones through one seeded random history per configuration and
// requires them to agree, value for value and in order, on every Lookup and
// Scan: every value kind, duplicate and hash-colliding keys, physical times
// arriving out of order, Evict and ScrubLineage. The caller rewrites its
// tuples, and every lineage bitmap it does not lend, the moment Insert
// returns, so a store that kept a pointer reads the wrong values. A lent
// bitmap (Options.Borrowed) must come back as that very bitmap.
func TestArrangementMatchesSliceModel(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		ops  int // an unwindowed store never evicts: fewer ops keep it small
	}{
		{Options{Name: "phys", KeyCol: 1, Windowed: true, TimeKind: window.Physical}, 3000},
		{Options{Name: "logical", KeyCol: 0, Windowed: true, TimeKind: window.Logical}, 3000},
		{Options{Name: "unindexed", KeyCol: -1, Windowed: true, TimeKind: window.Physical}, 3000},
		{Options{Name: "unwindowed", KeyCol: 2}, 600},
	} {
		opts := tc.opts
		t.Run(opts.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(opts.Name))))
			// Two lineage templates the caller lends and never writes (the
			// store may scrub them), and bitmaps it owns and rewrites.
			templates := []tuple.Bitset{{0b1011}, {0b0110, 1}}
			opts.Borrowed = func(b tuple.Bitset) bool {
				return b.Same(templates[0]) || b.Same(templates[1])
			}
			a := New(opts)
			model := &sliceModel{opts: opts}
			if st := a.Stats(); st.Bytes != int64(a.lin.bytes()) || a.log.Bytes() != 0 {
				t.Fatalf("an empty arrangement holds %d bytes, %d in its log", st.Bytes, a.log.Bytes())
			}
			rows := make([]*tuple.Tuple, 12) // the caller's tuples, reused
			for i := range rows {
				rows[i] = new(tuple.Tuple)
			}
			now := int64(0)
			fill := func(r *tuple.Tuple) {
				r.Vals = r.Vals[:0]
				for c := 0; c < 3+rng.Intn(2); c++ {
					if c == max(opts.KeyCol, 0) {
						r.Vals = append(r.Vals, modelKeys[rng.Intn(len(modelKeys))])
					} else {
						r.Vals = append(r.Vals, randomValue(rng))
					}
				}
				now++
				r.Seq = now
				r.TS = now - int64(rng.Intn(3))*int64(rng.Intn(40)) // some arrive late
				switch rng.Intn(4) {
				case 0:
					r.Queries = nil
				case 1:
					r.Queries = templates[rng.Intn(2)]
				case 2:
					r.Queries = tuple.Bitset{}
				default:
					r.Queries = tuple.Bitset{uint64(rng.Intn(4)), uint64(rng.Intn(2))}
				}
			}
			lent := map[*tuple.Tuple]bool{}
			check := func(op int, what string, got []*tuple.Tuple, want []*tuple.Tuple) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("op %d %s: %d rows, model %d", op, what, len(got), len(want))
				}
				for i := range got {
					if !sameStored(got[i], want[i]) {
						t.Fatalf("op %d %s: row %d is %v seq=%d ts=%d lineage=%v, model %v seq=%d ts=%d lineage=%v",
							op, what, i, got[i], got[i].Seq, got[i].TS, got[i].Queries, want[i], want[i].Seq, want[i].TS, want[i].Queries)
					}
				}
			}
			evicted, scrubs := 0, 0
			for op := 0; op < tc.ops; op++ {
				what := ""
				switch k := rng.Intn(20); {
				case k < 9:
					n := rng.Intn(len(rows) + 1)
					what = fmt.Sprintf("Insert(%d)", n)
					for _, r := range rows[:n] {
						fill(r)
					}
					a.Insert(rows[:n])
					model.insert(rows[:n])
					for i, r := range rows[:n] {
						lent[model.rows[len(model.rows)-n+i]] = opts.Borrowed(r.Queries)
						// Rewrite what the caller owns: values and its own bitmaps.
						for j := range r.Vals {
							r.Vals[j] = randomValue(rng)
						}
						r.Seq, r.TS = -1, -1
						if !opts.Borrowed(r.Queries) {
							for j := range r.Queries {
								r.Queries[j] = ^uint64(0)
							}
						}
					}
				case k < 14:
					key := modelKeys[rng.Intn(len(modelKeys))]
					what = fmt.Sprintf("Lookup(%v)", key)
					var got []*tuple.Tuple
					lookup(a, key.Hash(), func(tt *tuple.Tuple) { got = append(got, tt.Clone()) })
					check(op, what, got, model.bucket(key.Hash()))
				case k < 16:
					what = "Scan"
					var got []*tuple.Tuple
					var same []bool
					scan(a, func(tt *tuple.Tuple) {
						got = append(got, tt.Clone())
						same = append(same, tt.Queries.Same(templates[0]) || tt.Queries.Same(templates[1]))
					})
					want := model.all()
					check(op, what, got, want)
					for i, w := range want {
						if same[i] != lent[w] {
							t.Fatalf("op %d Scan: row %d returns the lent bitmap itself: %v, lent: %v", op, i, same[i], lent[w])
						}
					}
				case k < 19:
					w := now - int64(rng.Intn(120))
					what = fmt.Sprintf("Evict(%d)", w)
					got, want := a.Evict(w), model.evict(w)
					if got != want {
						t.Fatalf("op %d %s = %d, model %d", op, what, got, want)
					}
					evicted += got
				default:
					var mask tuple.Bitset
					mask.Set(rng.Intn(70))
					what = fmt.Sprintf("ScrubLineage(%v)", mask)
					a.ScrubLineage(mask)
					model.scrub(mask)
					scrubs++
				}
				st := a.Stats()
				if st.Size != len(model.rows) || a.Len() != len(model.rows) {
					t.Fatalf("op %d %s: Size %d, model %d", op, what, st.Size, len(model.rows))
				}
				if int64(st.Size)+st.Evicted != st.Inserts {
					t.Fatalf("op %d %s: size %d + evicted %d != inserts %d",
						op, what, st.Size, st.Evicted, st.Inserts)
				}
				if op%16 == 0 {
					checkStore(t, a)
				}
			}
			checkStore(t, a)
			if opts.Windowed && evicted == 0 || scrubs == 0 || len(model.rows) == 0 {
				t.Fatalf("the history evicted %d rows, scrubbed %d times, ends with %d rows: it tests too little",
					evicted, scrubs, len(model.rows))
			}
		})
	}
}

// checkStore holds the store to its own invariants: the log holds one row
// per ref, each ref locates the row of its number (the log's rows are in
// arrival order), every bucket ring holds only rows of its hash, the rings
// together hold every row once, and the time order is a permutation.
// FuzzLog (internal/storage) holds the log to its chunk rule.
func checkStore(t *testing.T, a *Arrangement) {
	t.Helper()
	if a.log.Len() != len(a.refs) {
		t.Fatalf("the log holds %d rows for %d refs", a.log.Len(), len(a.refs))
	}
	rows, err := a.log.Decode(a.log.Locate(0, storage.Mark{}), math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range a.refs {
		if seq, ts := storage.ReadStamp(a.log.Row(r.at)); seq != rows[i].Seq || ts != rows[i].TS {
			t.Fatalf("ref %d locates the row stamped %d/%d, the log's row %d is %d/%d", i, seq, ts, i, rows[i].Seq, rows[i].TS)
		}
	}
	if a.index != nil {
		seen := 0
		var row tuple.Tuple
		var vals []tuple.Value
		rs := Rows{a}
		for h, tail := range a.index {
			for i := a.refs[tail].next; ; i = a.refs[i].next {
				vals = rs.row(i).Decode(&row, vals[:0])
				if row.Vals[a.opts.KeyCol].Hash() != h {
					t.Fatalf("row %d in the bucket of hash %x", i, h)
				}
				seen++
				if i == tail || seen > len(a.refs) {
					break
				}
			}
		}
		if seen != len(a.refs) {
			t.Fatalf("bucket rings hold %d rows of %d", seen, len(a.refs))
		}
	}
	if a.order != nil {
		perm := slices.Clone(a.order)
		slices.Sort(perm)
		for i, v := range perm {
			if v != int32(i) {
				t.Fatalf("time order %v is not a permutation of %d rows", a.order, len(a.refs))
			}
		}
	}
}

// TestArrangementConcurrentReads: readers decoding every row under Read
// while the writer inserts, evicts and scrubs (run under -race) each see one
// consistent store: Scan in time order, and the buckets of the known keys
// holding exactly the rows Scan saw.
func TestArrangementConcurrentReads(t *testing.T) {
	a := New(Options{Name: "race", KeyCol: 0, Windowed: true, TimeKind: window.Physical})
	const readers = 3
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var row tuple.Tuple
			var vals []tuple.Value
			for {
				select {
				case <-stop:
					return
				default:
				}
				a.Read(func(rs Rows) {
					all, last, inBuckets := 0, int64(math.MinInt64), 0
					rs.All(func(rw Row) {
						vals = rw.Decode(&row, vals[:0])
						if row.TS < last {
							errs <- fmt.Errorf("Scan went back in time: %d after %d", row.TS, last)
						}
						last = row.TS
						all++
					})
					for k := int64(0); k < 8; k++ {
						rs.Bucket(tuple.Int(k).Hash(), func(Row) { inBuckets++ })
					}
					if inBuckets != all {
						errs <- fmt.Errorf("buckets hold %d rows, Scan saw %d", inBuckets, all)
					}
				})
			}
		}()
	}
	rng := rand.New(rand.NewSource(1))
	for i := int64(0); i < 1000; i++ {
		row := tuple.New(tuple.Int(i%8), tuple.String_(fmt.Sprint(i)))
		row.TS, row.Seq = i-int64(rng.Intn(5)), i
		row.Queries = tuple.Bitset{uint64(i % 3)}
		a.Insert([]*tuple.Tuple{row})
		if i%64 == 0 {
			a.Evict(i - 200)
		}
		if i%200 == 0 {
			a.ScrubLineage(tuple.Bitset{1})
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
