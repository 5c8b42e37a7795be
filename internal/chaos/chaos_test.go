package chaos

import (
	"testing"
	"time"

	"telegraphcq/internal/tuple"
)

// fired returns the offset from the zero time a timer channel delivered,
// or false if it holds nothing.
func fired(ch <-chan time.Time) (time.Duration, bool) {
	select {
	case at := <-ch:
		return at.Sub(time.Time{}), true
	default:
		return 0, false
	}
}

// TestVirtualClockAdvanceFiresTimersInOrder: one Advance past several
// deadlines fires each timer at its own deadline — in deadline order, or a
// later timer would have moved the clock past an earlier one's.
func TestVirtualClockAdvanceFiresTimersInOrder(t *testing.T) {
	v := NewVirtual(time.Time{})
	var chs []<-chan time.Time
	for _, ms := range []time.Duration{3, 1, 2} {
		chs = append(chs, v.NewTimer(ms*time.Millisecond).C())
	}
	chs = append(chs, v.After(4*time.Millisecond))
	v.Advance(10 * time.Millisecond)
	for i, want := range []time.Duration{3, 1, 2, 4} {
		if at, ok := fired(chs[i]); !ok || at != want*time.Millisecond {
			t.Errorf("timer %d: fired=%v at +%v, want +%vms", i, ok, at, want)
		}
	}
	if got := v.Since(time.Time{}); got != 10*time.Millisecond {
		t.Errorf("Since = %v", got)
	}
}

func TestVirtualClockTimerStop(t *testing.T) {
	v := NewVirtual(time.Time{})
	timer := v.NewTimer(time.Millisecond)
	if !timer.Stop() {
		t.Error("first Stop reported false")
	}
	if timer.Stop() {
		t.Error("second Stop reported true")
	}
	v.Advance(time.Second)
	if _, ok := fired(timer.C()); ok {
		t.Error("stopped timer fired")
	}
}

// TestVirtualClockTimerReset re-arms one timer after it fired, while it is
// pending and after a Stop: it fires once per arming, at the new deadline.
func TestVirtualClockTimerReset(t *testing.T) {
	v := NewVirtual(time.Time{})
	timer := v.NewTimer(time.Millisecond)
	v.Advance(time.Millisecond)
	if at, ok := fired(timer.C()); !ok || at != time.Millisecond {
		t.Fatalf("first arming: fired=%v at +%v", ok, at)
	}
	if timer.Reset(2 * time.Millisecond) {
		t.Error("Reset of a fired timer reported it pending")
	}
	if !timer.Reset(3 * time.Millisecond) {
		t.Error("Reset of a pending timer reported it fired")
	}
	v.Advance(2 * time.Millisecond)
	if _, ok := fired(timer.C()); ok {
		t.Fatal("re-armed timer fired at its superseded deadline")
	}
	v.Advance(time.Millisecond)
	if at, ok := fired(timer.C()); !ok || at != 4*time.Millisecond {
		t.Fatalf("second arming: fired=%v at +%v, want +4ms", ok, at)
	}
	timer.Reset(time.Millisecond)
	timer.Stop()
	if timer.Reset(time.Millisecond) {
		t.Error("Reset of a stopped timer reported it pending")
	}
	v.Advance(time.Millisecond)
	if at, ok := fired(timer.C()); !ok || at != 5*time.Millisecond {
		t.Fatalf("after Stop and Reset: fired=%v at +%v, want +5ms", ok, at)
	}
}

func TestVirtualClockSleepBlocksUntilAdvance(t *testing.T) {
	v := NewVirtual(time.Time{})
	done := make(chan struct{})
	go func() {
		v.Sleep(5 * time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Sleep returned before Advance")
	case <-time.After(10 * time.Millisecond):
	}
	v.Advance(5 * time.Millisecond)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not return after Advance")
	}
}

func TestVirtualClockAutoAdvance(t *testing.T) {
	v := NewVirtual(time.Time{})
	v.SetAutoAdvance(true)
	v.Sleep(time.Hour) // must not block
	if got := v.Since(time.Time{}); got != time.Hour {
		t.Errorf("auto-advanced to %v, want 1h", got)
	}
	// Poll under auto-advance terminates without any external driver.
	n := 0
	if ok := Poll(v, time.Minute, time.Second, func() bool { n++; return n == 5 }); !ok {
		t.Error("Poll never saw the condition")
	}
}

func TestPollTimesOut(t *testing.T) {
	v := NewVirtual(time.Time{})
	v.SetAutoAdvance(true)
	if Poll(v, 10*time.Millisecond, time.Millisecond, func() bool { return false }) {
		t.Error("Poll reported success for an impossible condition")
	}
}

func TestSiteDeterminism(t *testing.T) {
	draw := func(seed int64) []Fault {
		in := New(Config{Seed: seed, Drop: 0.1, Delay: 0.1, Dup: 0.1, Reorder: 0.1}, NewVirtual(time.Time{}))
		s := in.Site("q/site")
		out := make([]Fault, 200)
		for i := range out {
			out[i] = s.Next()
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical decision streams")
	}
}

func TestSitesIndependentOfCreationOrder(t *testing.T) {
	in1 := New(Config{Seed: 7, Crash: 0.5}, nil)
	a1 := in1.Site("a").Next()
	b1 := in1.Site("b").Next()
	in2 := New(Config{Seed: 7, Crash: 0.5}, nil)
	b2 := in2.Site("b").Next()
	a2 := in2.Site("a").Next()
	if a1 != a2 || b1 != b2 {
		t.Errorf("site streams depend on creation order: a %v/%v b %v/%v", a1, a2, b1, b2)
	}
}

func TestTraceSortedAndReproducible(t *testing.T) {
	run := func() string {
		in := New(Config{Seed: 99, Drop: 0.3, Crash: 0.1}, nil)
		a, b := in.Site("a"), in.Site("b")
		for i := 0; i < 50; i++ {
			a.Next()
			b.Next()
		}
		return in.TraceString()
	}
	if run() != run() {
		t.Error("same seed produced different traces")
	}
	in := New(Config{Seed: 99, Drop: 1}, nil)
	in.Site("z").Next()
	in.Site("a").Next()
	evs := in.Trace()
	if len(evs) != 2 || evs[0].Site != "a" || evs[1].Site != "z" {
		t.Errorf("trace not sorted: %v", evs)
	}
}

func TestNilSiteIsNoop(t *testing.T) {
	var s *Site
	if s.Next() != None {
		t.Error("nil site decided a fault")
	}
	sent := 0
	if !s.PerturbSend(tuple.New(tuple.Int(1)), func(*tuple.Tuple) bool { sent++; return true }) {
		t.Error("nil site blocked a send")
	}
	if sent != 1 {
		t.Errorf("sent = %d", sent)
	}
	s.Flush(func(*tuple.Tuple) bool { sent++; return true })
	if sent != 1 {
		t.Error("nil Flush delivered something")
	}
}

func TestPerturbSendFaults(t *testing.T) {
	clk := NewVirtual(time.Time{})
	clk.SetAutoAdvance(true)

	// Drop everything: sends are swallowed but reported delivered.
	in := New(Config{Seed: 1, Drop: 1}, clk)
	s := in.Site("drop")
	delivered := 0
	send := func(*tuple.Tuple) bool { delivered++; return true }
	for i := 0; i < 10; i++ {
		if !s.PerturbSend(tuple.New(tuple.Int(int64(i))), send) {
			t.Fatal("drop reported failure")
		}
	}
	if delivered != 0 {
		t.Errorf("drop delivered %d", delivered)
	}

	// Duplicate everything: each send delivers twice.
	in = New(Config{Seed: 1, Dup: 1}, clk)
	s = in.Site("dup")
	delivered = 0
	for i := 0; i < 10; i++ {
		s.PerturbSend(tuple.New(tuple.Int(int64(i))), send)
	}
	if delivered != 20 {
		t.Errorf("dup delivered %d, want 20", delivered)
	}

	// Reorder everything: pairs swap, nothing is lost once flushed.
	in = New(Config{Seed: 1, Reorder: 1}, clk)
	s = in.Site("reorder")
	var got []int64
	capture := func(t *tuple.Tuple) bool { got = append(got, t.Vals[0].AsInt()); return true }
	for i := 0; i < 5; i++ {
		s.PerturbSend(tuple.New(tuple.Int(int64(i))), capture)
	}
	s.Flush(capture)
	if len(got) != 5 {
		t.Fatalf("reorder lost tuples: %v", got)
	}
	seen := make(map[int64]bool)
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("reorder duplicated tuples: %v", got)
	}
	inOrder := true
	for i := range got {
		if got[i] != int64(i) {
			inOrder = false
		}
	}
	if inOrder {
		t.Errorf("reorder site never reordered: %v", got)
	}

	// Delay everything on a virtual clock: no wall time is spent.
	in = New(Config{Seed: 1, Delay: 1, MaxDelay: time.Second}, clk)
	s = in.Site("delay")
	start := time.Now()
	delivered = 0
	for i := 0; i < 10; i++ {
		s.PerturbSend(tuple.New(tuple.Int(int64(i))), send)
	}
	if delivered != 10 {
		t.Errorf("delay delivered %d", delivered)
	}
	if time.Since(start) > time.Second {
		t.Error("virtual delays consumed wall time")
	}
}
