package core

import (
	"fmt"
	"testing"

	"telegraphcq/internal/tuple"
)

// Pins for "one unwindowed runtime": every unwindowed plan is a CACQ class
// member, whatever its join graph, and the class's modules follow what its
// members select on, not the width of its layout.

// TestWideLayoutsRegister: a class's module count follows its members'
// selected columns and joined positions, not its layout's width, so a
// selection on a 70-column stream and an equijoin of two 40-column streams
// register and deliver (they needed 70 and 82 modules when every column got
// a grouped filter up front).
func TestWideLayoutsRegister(t *testing.T) {
	e := NewEngine(Options{EOs: 1})
	defer e.Stop()
	cols := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("c%d", i)
		}
		return out
	}
	intStream(t, e, "w", cols(70)...)
	intStream(t, e, "x", cols(40)...)
	intStream(t, e, "y", cols(40)...)
	sel, err := e.Register(`SELECT c0 FROM w WHERE c0 > 5`)
	if err != nil {
		t.Fatal(err)
	}
	join, err := e.Register(`SELECT x.c1, y.c1 FROM x, y WHERE x.c0 = y.c0`)
	if err != nil {
		t.Fatal(err)
	}
	wide := func(n int, k, v int64) *tuple.Tuple {
		vals := make([]tuple.Value, n)
		for i := range vals {
			vals[i] = tuple.Int(v)
		}
		vals[0] = tuple.Int(k)
		return tuple.New(vals...)
	}
	for i := int64(0); i < 10; i++ {
		if err := e.Feed("w", wide(70, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 4; i++ {
		if err := e.Feed("x", wide(40, i%2, i)); err != nil {
			t.Fatal(err)
		}
		if err := e.Feed("y", wide(40, i%2, 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	waitResults(t, sel, 4)
	waitResults(t, join, 8)
}
