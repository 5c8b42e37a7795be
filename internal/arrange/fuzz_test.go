package arrange

import (
	"testing"

	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// FuzzCursorEpoch drives an arrangement with an arbitrary interleaving of
// its writer's operations decoded from the fuzz input (one op per byte:
// insert, evict or scrub) and checks after every step that eviction frees
// at once and no row is lost: inserts == live + evicted. The name and the
// seed corpus are kept from the cursor/epoch protocol it once drove.
func FuzzCursorEpoch(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 2, 4, 3, 5})
	f.Add([]byte{3, 3, 0, 1, 5, 0, 2, 4, 4})
	f.Add([]byte{0, 6, 1, 2, 7, 0, 8, 3, 4, 5})
	f.Add([]byte{0, 1, 1, 1, 2, 2, 2})
	f.Add([]byte{3, 0, 2, 1, 2, 5, 3, 0, 1, 2, 4})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		a := New(Options{Name: "fuzz", KeyCol: 0, Windowed: true, TimeKind: window.Physical})
		var now int64
		for i, op := range ops {
			switch op % 3 {
			case 0: // insert a small batch
				b := []*tuple.Tuple{mk(now, now%4), mk(now+1, (now+1)%4)}
				now += 2
				a.Insert(b)
			case 1: // evict a sliding window
				a.Evict(now - 8)
			case 2:
				var m tuple.Bitset
				m.Set(int(op))
				a.ScrubLineage(m)
			}
			st := a.Stats()
			if got := int64(st.Size) + st.Evicted; got != st.Inserts {
				t.Fatalf("step %d: live %d + evicted %d != inserted %d",
					i, st.Size, st.Evicted, st.Inserts)
			}
		}
	})
}
