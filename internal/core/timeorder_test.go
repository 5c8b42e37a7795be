package core

import (
	"fmt"
	"testing"

	"telegraphcq/internal/tuple"
)

// TestTimeValuesOneNanosecondApart: TIME values in unix nanoseconds lie far
// past 2^53, where float64 rounds 128 neighbours to one number. A query
// still orders and filters them exactly: five instants 1 ns apart, fed out
// of order, come back sorted by ORDER BY, and `=` and `>` on an instant
// select exactly the rows at and after it.
func TestTimeValuesOneNanosecondApart(t *testing.T) {
	const base = 1_700_000_000_000_000_000
	e := NewEngine(Options{EOs: 1})
	defer e.Stop()
	if err := e.CreateStream("ev", tuple.NewSchema("ev",
		tuple.Column{Name: "tm", Kind: tuple.KindTime},
		tuple.Column{Name: "v", Kind: tuple.KindInt}), -1); err != nil {
		t.Fatal(err)
	}
	after, err := e.Register(fmt.Sprintf(`SELECT v FROM ev WHERE tm > %d`, base+2))
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{3, 0, 4, 1, 2} {
		if err := e.Feed("ev", tuple.New(tuple.Time(base+off), tuple.Int(off))); err != nil {
			t.Fatal(err)
		}
	}
	waitResults(t, after, 2)
	check := func(q *RunningQuery, what string, want ...int64) {
		t.Helper()
		rows, err := q.Fetch(q.Cursor())
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int64, len(rows))
		for i, r := range rows {
			got[i] = r.Vals[0].AsInt()
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: v = %v, want %v", what, got, want)
		}
	}
	check(after, "tm > base+2", 3, 4)
	window := `for (; t == 0; t = -1) { WindowIs(ev, 1, 5); }`
	for _, tc := range []struct {
		sql  string
		want []int64
	}{
		{`SELECT v FROM ev ORDER BY tm ` + window, []int64{0, 1, 2, 3, 4}},
		{fmt.Sprintf(`SELECT v FROM ev WHERE tm = %d `, base+2) + window, []int64{2}},
	} {
		q, err := e.Register(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		q.Wait()
		check(q, tc.sql, tc.want...)
	}
}
