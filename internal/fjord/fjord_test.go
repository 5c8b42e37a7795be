package fjord

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"telegraphcq/internal/chaos"

	"telegraphcq/internal/tuple"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(4)
	for i := 0; i < 4; i++ {
		if !q.Push(tuple.New(tuple.Int(int64(i)))) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.Push(tuple.New(tuple.Int(9))) {
		t.Error("push into full queue succeeded")
	}
	for i := 0; i < 4; i++ {
		got, ok := q.Pop()
		if !ok || got.Vals[0].AsInt() != int64(i) {
			t.Fatalf("pop %d: got %v ok=%v", i, got, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop from empty queue succeeded")
	}
}

// TestQueueNotify: the consumer registered with Notify is roused once per
// push call that enqueued anything — not per tuple, not for a rejected
// push — before a blocking batch push waits for room, and on Close.
func TestQueueNotify(t *testing.T) {
	q := NewQueue(4)
	var mu sync.Mutex
	wakes := 0
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return wakes
	}
	q.Notify(func() {
		mu.Lock()
		wakes++
		mu.Unlock()
	})
	ts := func(n int) []*tuple.Tuple {
		out := make([]*tuple.Tuple, n)
		for i := range out {
			out[i] = tuple.New(tuple.Int(int64(i)))
		}
		return out
	}
	q.Push(ts(1)[0])
	q.PushWait(ts(1)[0])
	if n := q.PushMany(ts(3)); n != 2 || count() != 3 {
		t.Fatalf("PushMany enqueued %d, wakes %d; want 2, 3", n, count())
	}
	if q.Push(ts(1)[0]) || q.PushMany(ts(2)) != 0 || count() != 3 {
		t.Fatalf("a rejected push roused the consumer: wakes %d", count())
	}
	// Full queue: PushWaitMany rouses before it waits, so the consumer
	// drains; then once more for what it enqueued after.
	done := make(chan int)
	go func() { done <- q.PushWaitMany(ts(6)) }()
	dst := make([]*tuple.Tuple, 4)
	for got := 0; got < 10; {
		got += q.PopMany(dst)
		runtime.Gosched()
	}
	if n := <-done; n != 6 {
		t.Fatalf("PushWaitMany enqueued %d", n)
	}
	if w := count(); w < 4 {
		t.Fatalf("PushWaitMany did not rouse the consumer before waiting: wakes %d", w)
	}
	before := count()
	q.Close()
	if count() != before+1 {
		t.Error("Close did not rouse the consumer")
	}
}

func TestQueueWraparound(t *testing.T) {
	q := NewQueue(3)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !q.Push(tuple.New(tuple.Int(int64(round*3 + i)))) {
				t.Fatal("push failed")
			}
		}
		for i := 0; i < 3; i++ {
			got, ok := q.Pop()
			if !ok || got.Vals[0].AsInt() != int64(round*3+i) {
				t.Fatalf("round %d pop %d: %v", round, i, got)
			}
		}
	}
}

func TestQueueBlockingHandoff(t *testing.T) {
	q := NewQueue(1)
	done := make(chan int64)
	ready := make(chan struct{})
	go func() {
		close(ready)
		v, ok := q.PopWait()
		if !ok {
			done <- -1
			return
		}
		done <- v.Vals[0].AsInt()
	}()
	// Bias toward the consumer blocking first without wall-clock sleeps;
	// the handoff is correct in either interleaving.
	<-ready
	runtime.Gosched()
	q.PushWait(tuple.New(tuple.Int(42)))
	if got := <-done; got != 42 {
		t.Errorf("handoff got %d", got)
	}
}

func TestQueueCloseWakesConsumers(t *testing.T) {
	q := NewQueue(1)
	var wg sync.WaitGroup
	ready := make(chan struct{}, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready <- struct{}{}
			if _, ok := q.PopWait(); ok {
				t.Error("PopWait returned a tuple from an empty closed queue")
			}
		}()
	}
	// PopWait on a closed empty queue returns immediately, so Close is
	// correct whether or not the consumers have blocked yet.
	for i := 0; i < 3; i++ {
		<-ready
	}
	runtime.Gosched()
	q.Close()
	wg.Wait()
	if !q.Drained() {
		t.Error("closed empty queue not drained")
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue(4)
	q.Push(tuple.New(tuple.Int(1)))
	q.Close()
	if q.Push(tuple.New(tuple.Int(2))) {
		t.Error("push after close succeeded")
	}
	if q.Drained() {
		t.Error("queue with content reports drained")
	}
	if _, ok := q.PopWait(); !ok {
		t.Error("could not drain closed queue")
	}
	if !q.Drained() {
		t.Error("emptied closed queue not drained")
	}
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewQueue(16)
	const producers, per = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.PushWait(tuple.New(tuple.Int(1)))
			}
		}()
	}
	go func() {
		wg.Wait()
		q.Close()
	}()
	var total int64
	var cwg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < 3; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			local := int64(0)
			for {
				_, ok := q.PopWait()
				if !ok {
					break
				}
				local++
			}
			mu.Lock()
			total += local
			mu.Unlock()
		}()
	}
	cwg.Wait()
	if total != producers*per {
		t.Errorf("consumed %d, want %d", total, producers*per)
	}
}

func TestQueueStats(t *testing.T) {
	q := NewQueue(1)
	q.Push(tuple.New(tuple.Int(1)))
	q.Push(tuple.New(tuple.Int(2))) // dropped: full
	enq, dropped := q.Stats()
	if enq != 1 || dropped != 1 {
		t.Errorf("stats = %d enqueued, %d dropped", enq, dropped)
	}
	// A closed queue refuses without shedding: its consumer is gone, not
	// behind (a finished window loop's input, pushed by a stale fan-out).
	q.Close()
	if q.Push(tuple.New(tuple.Int(3))) {
		t.Error("closed queue accepted a push")
	}
	if _, dropped := q.Stats(); dropped != 1 {
		t.Errorf("dropped = %d after a push into a closed queue, want 1", dropped)
	}
}

func TestConnModalities(t *testing.T) {
	push := NewConn(Push, 1)
	if _, ok := push.Recv(); ok {
		t.Error("push recv on empty should not block or succeed")
	}
	push.Send(tuple.New(tuple.Int(1)))
	if ok := push.Send(tuple.New(tuple.Int(2))); ok {
		t.Error("push send into full conn should fail")
	}

	ex := NewConn(Exchange, 1)
	ex.Send(tuple.New(tuple.Int(1)))
	if ok := ex.Send(tuple.New(tuple.Int(2))); ok {
		t.Error("exchange producer should not block (and must fail when full)")
	}
	if got, ok := ex.Recv(); !ok || got.Vals[0].AsInt() != 1 {
		t.Error("exchange consumer should receive")
	}
}

func TestPipeline(t *testing.T) {
	src := NewConn(Pull, 8)
	double := Transform(func(t *tuple.Tuple) []*tuple.Tuple {
		return []*tuple.Tuple{tuple.New(tuple.Int(t.Vals[0].AsInt() * 2))}
	})
	dropOdd := Transform(func(t *tuple.Tuple) []*tuple.Tuple {
		if t.Vals[0].AsInt()%4 == 0 {
			return []*tuple.Tuple{t}
		}
		return nil
	})
	out := Pipeline(src, Pull, 8, double, dropOdd)
	go func() {
		for i := 1; i <= 10; i++ {
			src.Send(tuple.New(tuple.Int(int64(i))))
		}
		src.Close()
	}()
	var got []int64
	for {
		tp, ok := out.Recv()
		if !ok {
			break
		}
		got = append(got, tp.Vals[0].AsInt())
	}
	want := []int64{4, 8, 12, 16, 20}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPipelinePushModality(t *testing.T) {
	src := NewConn(Push, 1024)
	ident := Transform(func(t *tuple.Tuple) []*tuple.Tuple { return []*tuple.Tuple{t} })
	out := Pipeline(src, Push, 1024, ident)
	for i := 0; i < 100; i++ {
		src.Send(tuple.New(tuple.Int(int64(i))))
	}
	src.Close()
	count := 0
	deadline := chaos.Real().After(2 * time.Second)
	for count < 100 {
		select {
		case <-deadline:
			t.Fatalf("timed out after %d tuples", count)
		default:
		}
		if _, ok := out.Recv(); ok {
			count++
		} else if out.Drained() {
			break
		}
	}
	if count != 100 {
		t.Errorf("received %d tuples", count)
	}
}
