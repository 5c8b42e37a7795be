package arrange

import (
	"testing"

	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// FuzzCursorEpoch drives the arrangement's cursor/epoch protocol with an
// arbitrary interleaving of operations decoded from the fuzz input (one op
// per byte: insert, evict, advance, open/sync/close cursors, attach/close
// handles, scrub) and checks the reclamation invariants after every step:
//
//   - eviction frees at once, whatever the cursors: reclaimed == evicted,
//     and no row is lost (inserts == live + reclaimed);
//   - cursor lag is always Epoch - min(open cursor epochs) and zero when no
//     cursors are open after an Advance.
func FuzzCursorEpoch(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 2, 4, 3, 5})          // insert/evict/advance/sync
	f.Add([]byte{3, 3, 0, 1, 5, 0, 2, 4, 4})       // cursors opened before data
	f.Add([]byte{0, 6, 1, 2, 7, 0, 8, 3, 4, 5})    // handles + scrub in the mix
	f.Add([]byte{0, 1, 1, 1, 2, 2, 2})             // repeated evict/advance, no cursor
	f.Add([]byte{3, 0, 2, 1, 2, 5, 3, 0, 1, 2, 4}) // close then reopen

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		a := New(Options{Name: "fuzz", KeyCol: 0, Windowed: true, TimeKind: window.Physical})
		var (
			cursors []*Cursor
			handles []*Handle
			now     int64
		)
		check := func(step int) {
			st := a.Stats()
			if st.ReclaimedTuples != st.Evicted {
				t.Fatalf("step %d: reclaimed %d != evicted %d", step, st.ReclaimedTuples, st.Evicted)
			}
			if got := int64(st.Size) + st.ReclaimedTuples; got != st.Inserts {
				t.Fatalf("step %d: live %d + reclaimed %d != inserted %d",
					step, st.Size, st.ReclaimedTuples, st.Inserts)
			}
			if st.Lag != st.Epoch-st.MinCursor {
				t.Fatalf("step %d: lag %d != epoch %d - min %d", step, st.Lag, st.Epoch, st.MinCursor)
			}
			if len(cursors) == 0 && st.Lag != 0 {
				t.Fatalf("step %d: lag %d with no cursors", step, st.Lag)
			}
		}
		for i, op := range ops {
			switch op % 9 {
			case 0: // insert a small batch
				b := []*tuple.Tuple{mk(now, now%4), mk(now+1, (now+1)%4)}
				now += 2
				a.Insert(b)
			case 1: // evict a sliding window
				a.Evict(now - 8)
			case 2:
				a.Advance()
			case 3:
				cursors = append(cursors, a.NewCursor())
			case 4: // sync the oldest cursor
				if len(cursors) > 0 {
					cursors[0].Sync()
				}
			case 5: // close the oldest cursor
				if len(cursors) > 0 {
					cursors[0].Close()
					cursors = cursors[1:]
				}
			case 6: // attach a handle to the newest cursor
				if len(cursors) > 0 {
					handles = append(handles, cursors[len(cursors)-1].Attach())
				}
			case 7: // probe + close a handle
				if len(handles) > 0 {
					h := handles[len(handles)-1]
					handles = handles[:len(handles)-1]
					h.Probe(tuple.Int(now%4).Hash(), func(*tuple.Tuple) {})
					h.Close()
				}
			case 8:
				var m tuple.Bitset
				m.Set(int(op))
				a.ScrubLineage(m)
			}
			check(i)
		}
		// Drain: close everything.
		for _, h := range handles {
			h.Close()
		}
		for _, c := range cursors {
			c.Close()
		}
		cursors = nil
		a.Advance()
		check(len(ops))
	})
}
