package storage

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"telegraphcq/internal/tuple"
)

// FuzzLog drives one Log, first chunk 512 B, with the operations its owners
// use, one per input byte (low two bits the operation, the rest its
// argument): append a row, visit from a position (Locate, Decode and
// AppendTo), TruncateFront and Compact. It checks every step against
// a plain slice of the rows held and their locations, and the chunks
// against the chunk rule. Its seeds (testdata/fuzz/FuzzLog) grow a log past
// 64 KiB, truncate one to empty and regrow it, and compact after dropping
// rows out of position order.
func FuzzLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		l := NewLog(512)
		var model []*tuple.Tuple // the rows held, oldest first
		var locs []Loc           // where each is
		var hint Mark            // a cursor's mark, as a pull log keeps one
		next, biggest := int64(0), 0
		for step, op := range ops {
			arg := int(op >> 2)
			switch op & 3 {
			case 0: // append; argument 63 is a row larger than a chunk
				size := arg * 40
				if arg == 63 {
					size = maxChunk + 100
				}
				r := tuple.New(tuple.Int(next), tuple.String_(strings.Repeat("x", size)), tuple.Null)
				r.Seq, r.TS = next, next
				next++
				locs = append(locs, l.Append(r))
				model = append(model, r)
				biggest = max(biggest, len(appendRow(nil, r)))
			case 1: // visit from a position below, inside or past the rows held
				pos := l.Start() - 2 + int64(arg%(len(model)+4))
				if arg%3 == 0 {
					pos = hint.Pos
				}
				from := l.Locate(pos, hint)
				k := int(min(max(pos, l.Start()), l.Start()+int64(len(model))) - l.Start())
				checkRun(t, l, from, model[k:])
				hint = l.End()
				left := int64(arg)
				got, err := l.Decode(l.Locate(0, Mark{}), left, left+9)
				var want []*tuple.Tuple
				for _, r := range model {
					if r.TS >= left && r.TS <= left+9 {
						want = append(want, r)
					}
				}
				if err != nil || !sameRows(got, want) {
					t.Fatalf("step %d: Decode over TS [%d, %d] = %d rows, want %d (err %v)", step, left, left+9, len(got), len(want), err)
				}
			case 2: // truncate, past the end when the argument is large
				pos := l.Start() + int64(arg%(len(model)+2))
				k := int(min(pos-l.Start(), int64(len(model))))
				l.TruncateFront(pos)
				model, locs = model[k:], locs[k:]
			case 3: // compact, dropping rows out of position order
				keep := func(i int) bool { return (model[i].TS*7+int64(arg))%5 > 1 }
				var kept []*tuple.Tuple
				var keptLocs []Loc
				want := 0
				for i, r := range model {
					if keep(i) {
						kept = append(kept, r)
					} else {
						want += len(appendRow(nil, r))
					}
				}
				got := l.Compact(keep, func(i int, at Loc) {
					if len(keptLocs) >= len(kept) || model[i] != kept[len(keptLocs)] {
						t.Fatalf("step %d: Compact moved row %d out of order", step, i)
					}
					keptLocs = append(keptLocs, at)
				})
				if got != want || len(keptLocs) != len(kept) {
					t.Fatalf("step %d: Compact dropped %d bytes and moved %d rows, want %d and %d", step, got, len(keptLocs), want, len(kept))
				}
				model, locs, hint = kept, keptLocs, Mark{}
			}
			checkLog(t, l, model, locs, biggest)
		}
	})
}

// checkRun holds the run from the mark from to the rows want: its
// decoding, its encoding and its counts.
func checkRun(t *testing.T, l *Log, from Mark, want []*tuple.Tuple) {
	t.Helper()
	vals := 0
	var enc []byte
	for _, r := range want {
		vals += len(r.Vals)
		enc = appendRow(enc, r)
	}
	got, err := l.Decode(from, math.MinInt64, math.MaxInt64)
	if err != nil || !sameRows(got, want) {
		t.Fatalf("Decode from %d = %d rows, want %d (err %v)", from.Pos, len(got), len(want), err)
	}
	buf, rows, v := l.AppendTo([]byte("prefix"), from)
	if !bytes.Equal(buf[6:], enc) || rows != len(want) || v != vals {
		t.Fatalf("AppendTo from %d = %d bytes, %d rows of %d values; want %d, %d of %d",
			from.Pos, len(buf)-6, rows, v, len(enc), len(want), vals)
	}
}

// checkLog holds l to the rows model, at locs, and to the chunk rule: the
// chunks hold consecutive positions ending at the end, the held rows past
// the truncated ones, the first chunk is not wholly truncated and the last
// is empty only when it is the first (a compacted chunk too small for the
// next survivor stays empty), no chunk is smaller than the first or larger than
// maxChunk unless a row was, and Bytes is the capacity of the chunks and
// the spare.
func checkLog(t *testing.T, l *Log, model []*tuple.Tuple, locs []Loc, biggest int) {
	t.Helper()
	if l.Len() != len(model) {
		t.Fatalf("log holds %d rows, model %d", l.Len(), len(model))
	}
	bytes, rows := cap(l.spare), -l.skip
	for k, c := range l.chunks {
		size := cap(c.buf)
		if size < l.first || size > max(maxChunk, biggest) {
			t.Fatalf("chunk %d is %d bytes: not a size the chunk rule makes", k, size)
		}
		if k > 0 && c.first != l.chunks[k-1].first+int64(l.chunks[k-1].rows) || k > 0 && k == len(l.chunks)-1 && c.rows == 0 {
			t.Fatalf("chunk %d: %d rows from %d after chunk %d's %d from %d", k, c.rows, c.first, k-1, l.chunks[k-1].rows, l.chunks[k-1].first)
		}
		bytes += size
		rows += c.rows
	}
	if bytes != l.Bytes() {
		t.Fatalf("chunks and spare hold %d bytes, Bytes says %d", bytes, l.Bytes())
	}
	if len(l.chunks) > 0 && (rows != len(model) || l.chunks[0].first+int64(l.skip) != l.Start() ||
		l.skip > 0 && l.skip >= l.chunks[0].rows) {
		t.Fatalf("chunks hold %d rows past %d truncated from %d; the log %d from %d", rows, l.skip, l.chunks[0].first, len(model), l.Start())
	}
	for i, at := range locs {
		var got tuple.Tuple
		if _, _, err := ReadRow(l.Row(at), &got, nil); err != nil || !sameRows([]*tuple.Tuple{&got}, model[i:i+1]) {
			t.Fatalf("row %d of %d does not read back at its location (err %v)", i, len(model), err)
		}
	}
	if end := l.End(); end.Pos != l.Start()+int64(len(model)) {
		t.Fatalf("End at %d for %d rows from %d", end.Pos, len(model), l.Start())
	}
}

// sameRows reports whether got and want hold the same rows, value for
// value.
func sameRows(got, want []*tuple.Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		g := got[i]
		if g.Seq != w.Seq || g.TS != w.TS || len(g.Vals) != len(w.Vals) {
			return false
		}
		for j, v := range w.Vals {
			if g.Vals[j].K != v.K || g.Vals[j].I != v.I || g.Vals[j].S != v.S ||
				math.Float64bits(g.Vals[j].F) != math.Float64bits(v.F) {
				return false
			}
		}
	}
	return true
}
