package core

import (
	"testing"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/tuple"
)

// FuzzRegisterPlan takes the plan grammar one level past the parser: any
// text either fails to register or runs — fed a fixed 50-row input over
// S(k, v), R(k, w) and T(k, w, x), fetched and deregistered — without a
// panic. The package's leakcheck TestMain fails the run if a plan leaves a
// goroutine behind. The seed corpus is the differential matrix's shapes;
// shapes over streams this engine lacks are refusals, which is a result
// too.
func FuzzRegisterPlan(f *testing.F) {
	for _, sh := range matrixShapes {
		f.Add(sh.sql)
	}
	f.Fuzz(func(t *testing.T, text string) {
		e := NewEngine(Options{EOs: 1, Clock: chaos.NewVirtual(time.Time{})})
		defer e.Stop()
		createSRT(t, e)
		q, err := e.Register(text)
		if err != nil {
			return
		}
		for i := int64(0); i < 20; i++ {
			if err := e.Feed("S", tuple.New(tuple.Int(i%5), tuple.Int(i))); err != nil {
				t.Fatal(err)
			}
			if i < 15 {
				if err := e.Feed("R", tuple.New(tuple.Int(i%5), tuple.Int(3*i))); err != nil {
					t.Fatal(err)
				}
				if err := e.Feed("T", tuple.New(tuple.Int(i%5), tuple.Int(3*i), tuple.Int(i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := q.Fetch(q.Cursor()); err != nil {
			t.Fatal(err)
		}
		if err := e.Deregister(q.ID); err != nil && !q.Done() {
			t.Fatal(err)
		}
	})
}
