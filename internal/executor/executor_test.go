package executor

import (
	"sync/atomic"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/tuple"
)

func TestDURunsAndFinishes(t *testing.T) {
	x := New(1)
	defer x.Stop()
	var n atomic.Int64
	x.Submit([]string{"s"}, &FuncDU{DUName: "count", Fn: func() (bool, bool) {
		v := n.Add(1)
		return true, v >= 10
	}})
	deadline := chaos.Real().After(5 * time.Second)
	for n.Load() < 10 {
		select {
		case <-deadline:
			t.Fatalf("DU ran %d steps", n.Load())
		default:
			chaos.Real().Sleep(time.Millisecond)
		}
	}
	// After done=true the DU is removed.
	chaos.Real().Sleep(10 * time.Millisecond)
	if got := n.Load(); got != 10 {
		t.Errorf("DU stepped %d times after done", got)
	}
	if x.EOs()[0].DUCount() != 0 {
		t.Error("finished DU not removed")
	}
}

func TestMultipleDUsInterleave(t *testing.T) {
	x := New(1)
	defer x.Stop()
	var a, b atomic.Int64
	x.Submit([]string{"s1"}, &FuncDU{DUName: "a", Fn: func() (bool, bool) {
		a.Add(1)
		return true, false
	}})
	x.Submit([]string{"s1"}, &FuncDU{DUName: "b", Fn: func() (bool, bool) {
		b.Add(1)
		return true, false
	}})
	chaos.Real().Sleep(20 * time.Millisecond)
	av, bv := a.Load(), b.Load()
	if av == 0 || bv == 0 {
		t.Fatalf("DUs did not interleave: a=%d b=%d", av, bv)
	}
	// Round-robin fairness: counts within a factor of 2.
	if av > 2*bv+4 || bv > 2*av+4 {
		t.Errorf("unfair scheduling: a=%d b=%d", av, bv)
	}
}

func TestIdleDUsDoNotSpinHot(t *testing.T) {
	x := New(1)
	defer x.Stop()
	var steps atomic.Int64
	x.Submit([]string{"s"}, &FuncDU{DUName: "idle", Fn: func() (bool, bool) {
		steps.Add(1)
		return false, false // never progresses
	}})
	chaos.Real().Sleep(20 * time.Millisecond)
	// An idle EO parks until something rouses it or its 1ms re-check
	// fires: 20ms permits ~20 steps. The 100µs idle sleep it replaced
	// allowed ~150; a hot spin would show orders of magnitude more.
	if s := steps.Load(); s > 100 {
		t.Errorf("idle DU stepped %d times in 20ms (polling)", s)
	}
	if x.EOs()[0].idle.Load() == 0 {
		t.Error("idle passes not recorded")
	}
}

// TestIdleEOWakesOnEnqueue: an EO whose DU found its queue empty parks, and
// a push into a queue wired to Rouse steps the DU again with the virtual
// clock standing still. An EO that slept between polls would wait on the
// clock forever.
func TestIdleEOWakesOnEnqueue(t *testing.T) {
	clk := chaos.NewVirtual(time.Time{})
	x := NewWithClock(1, clk)
	defer x.Stop()
	q := fjord.NewQueue(4)
	var got atomic.Int64
	eo := x.Submit([]string{"s"}, &FuncDU{DUName: "drain", Fn: func() (bool, bool) {
		_, ok := q.Pop()
		if ok {
			got.Add(1)
		}
		return ok, false
	}})
	q.Notify(eo.Rouse)
	// idleAfter waits for an idle pass beyond the first n: the EO parks
	// right after one.
	idleAfter := func(n int64) {
		t.Helper()
		if !chaos.Poll(nil, 5*time.Second, time.Millisecond, func() bool { return eo.idle.Load() > n }) {
			t.Fatal("EO never went idle")
		}
	}
	idleAfter(0)
	for i := int64(1); i <= 3; i++ {
		idle := eo.idle.Load()
		q.Push(tuple.New(tuple.Int(i)))
		if !chaos.Poll(nil, 5*time.Second, time.Millisecond, func() bool { return got.Load() == i }) {
			t.Fatalf("push %d: DU took %d tuples; the parked EO was not roused", i, got.Load())
		}
		idleAfter(idle)
	}
	if d := clk.Since(time.Time{}); d != 0 {
		t.Errorf("virtual clock moved %v", d)
	}
}

// TestParkedEORechecksOnTimer: with nothing to rouse it, a parked EO steps
// its DUs again each time the clock passes its 1ms re-check — one timer,
// re-armed by every park.
func TestParkedEORechecksOnTimer(t *testing.T) {
	clk := chaos.NewVirtual(time.Time{})
	x := NewWithClock(1, clk)
	defer x.Stop()
	var steps atomic.Int64
	x.Submit([]string{"s"}, &FuncDU{DUName: "idle", Fn: func() (bool, bool) {
		steps.Add(1)
		return false, false
	}})
	for want := int64(2); want <= 5; want++ {
		// Advance until the EO has re-armed its timer and the clock passed it.
		if !chaos.Poll(nil, 5*time.Second, time.Millisecond, func() bool {
			clk.Advance(time.Millisecond)
			return steps.Load() >= want
		}) {
			t.Fatalf("DU stepped %d times, want %d: the re-check did not fire", steps.Load(), want)
		}
	}
}

// TestParkDoesNotAllocate: parking re-arms the EO's one timer; neither the
// park nor the rouse that ends it allocates.
func TestParkDoesNotAllocate(t *testing.T) {
	eo := &ExecutionObject{clock: chaos.Real(), wake: make(chan struct{}, 1), quit: make(chan struct{})}
	eo.Rouse()
	eo.waitForWork(true) // the first timed park creates the timer
	if allocs := testing.AllocsPerRun(100, func() {
		eo.Rouse()
		eo.waitForWork(true)
	}); allocs != 0 {
		t.Errorf("park: %v allocs", allocs)
	}
}

func TestFootprintClasses(t *testing.T) {
	x := New(4)
	defer x.Stop()
	// Queries over {A}, {B}, {A,B}: all three must collapse into one
	// class; {C} stays separate.
	c1 := x.ClassFor([]string{"A"})
	c2 := x.ClassFor([]string{"B"})
	if c1 == c2 {
		t.Fatal("disjoint classes merged prematurely")
	}
	c3 := x.ClassFor([]string{"A", "B"})
	if x.ClassFor([]string{"A"}) != c3 || x.ClassFor([]string{"B"}) != c3 {
		t.Error("overlapping footprints not merged")
	}
	c4 := x.ClassFor([]string{"C"})
	if c4 == c3 {
		t.Error("unrelated stream merged")
	}
}

func TestClassEOStability(t *testing.T) {
	x := New(4)
	defer x.Stop()
	classA := x.ClassFor([]string{"A"})
	eoA := x.EOForClass(classA)
	// Merging B into A's class must keep A's EO.
	x.ClassFor([]string{"A", "B"})
	if got := x.EOForClass(x.ClassFor([]string{"B"})); got != eoA {
		t.Errorf("class EO changed after merge: %d -> %d", eoA.ID, got.ID)
	}
}

func TestDisjointClassesSpreadOverEOs(t *testing.T) {
	x := New(2)
	defer x.Stop()
	eo1 := x.Submit([]string{"S1"}, &FuncDU{DUName: "q1", Fn: func() (bool, bool) { return false, false }})
	eo2 := x.Submit([]string{"S2"}, &FuncDU{DUName: "q2", Fn: func() (bool, bool) { return false, false }})
	if eo1 == eo2 {
		t.Error("disjoint classes share an EO despite free capacity")
	}
}

func TestSubmitSameClassSameEO(t *testing.T) {
	x := New(4)
	defer x.Stop()
	eo1 := x.Submit([]string{"S"}, &FuncDU{DUName: "q1", Fn: func() (bool, bool) { return false, false }})
	eo2 := x.Submit([]string{"S"}, &FuncDU{DUName: "q2", Fn: func() (bool, bool) { return false, false }})
	if eo1 != eo2 {
		t.Error("same-footprint queries landed on different EOs")
	}
	if eo1.DUCount() != 2 {
		t.Errorf("DU count = %d", eo1.DUCount())
	}
}

func TestStopTerminates(t *testing.T) {
	x := New(3)
	x.Submit([]string{"s"}, &FuncDU{DUName: "q", Fn: func() (bool, bool) { return true, false }})
	done := make(chan struct{})
	go func() {
		x.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-chaos.Real().After(5 * time.Second):
		t.Fatal("Stop did not terminate")
	}
}

func TestStringSummary(t *testing.T) {
	x := New(2)
	defer x.Stop()
	if s := x.String(); s == "" {
		t.Error("empty summary")
	}
}

func TestPanickingDUIsContained(t *testing.T) {
	x := New(1)
	defer x.Stop()
	var healthy atomic.Int64
	x.Submit([]string{"a"}, &FuncDU{DUName: "bomb", Fn: func() (bool, bool) {
		panic("boom")
	}})
	x.Submit([]string{"a"}, &FuncDU{DUName: "healthy", Fn: func() (bool, bool) {
		healthy.Add(1)
		return true, false
	}})
	deadline := chaos.Real().Now().Add(5 * time.Second)
	for healthy.Load() < 10 && chaos.Real().Now().Before(deadline) {
		chaos.Real().Sleep(time.Millisecond)
	}
	if healthy.Load() < 10 {
		t.Fatal("healthy DU starved after sibling panic")
	}
	eo := x.EOs()[0]
	if eo.Panics() != 1 {
		t.Errorf("panics = %d", eo.Panics())
	}
	if eo.DUCount() != 1 {
		t.Errorf("DU count = %d (panicked DU not retired)", eo.DUCount())
	}
}
