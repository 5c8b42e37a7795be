// Package executor implements the TelegraphCQ execution model (§4.2.2):
// a small set of Execution Objects (EOs) — goroutine-backed threads of
// control visible to the runtime — each scheduling many non-preemptive
// Dispatch Units (DUs) that encode queries as cooperative state machines.
// Queries are partitioned into classes by their footprint (the set of
// streams and tables they read); queries in one class share one EO and
// therefore can share physical SteMs and grouped filters, while disjoint
// classes are isolated for scheduling and resource management.
package executor

import (
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"telegraphcq/internal/chaos"
)

// DispatchUnit is a cooperative unit of work: Step performs a bounded
// amount of processing and returns. DUs are never preempted mid-Step; an
// EO interleaves its DUs round-robin (the Fjords discipline gives control
// back voluntarily, §2.3).
type DispatchUnit interface {
	// Name identifies the DU in stats.
	Name() string
	// Step runs one bounded slice of work. progressed=false signals the
	// DU had nothing to do (lets the EO park when all DUs are idle);
	// done=true removes the DU from its EO.
	Step() (progressed, done bool)
}

// FuncDU adapts a function to DispatchUnit.
type FuncDU struct {
	DUName string
	Fn     func() (progressed, done bool)
}

// Name implements DispatchUnit.
func (f *FuncDU) Name() string { return f.DUName }

// Step implements DispatchUnit.
func (f *FuncDU) Step() (bool, bool) { return f.Fn() }

// ExecutionObject is one scheduler thread multiplexing DUs.
type ExecutionObject struct {
	ID    int
	clock chaos.Clock

	mu  sync.Mutex
	dus []DispatchUnit
	// pass is run's snapshot of dus, reused so a pass allocates nothing.
	pass []DispatchUnit
	// wake holds at most one token: Attach and Rouse leave one for an EO
	// parked in waitForWork. A channel rather than a condition variable: a
	// token cannot be lost when the parked goroutine is descheduled between
	// deciding to wait and waiting.
	wake chan struct{}
	// recheck is waitForWork's timed re-check, created by the first timed
	// park and re-armed by every later one.
	recheck chaos.Timer

	quit   chan struct{}
	done   chan struct{}
	steps  atomic.Int64
	idle   atomic.Int64
	panics atomic.Int64
}

func newEO(id int, clk chaos.Clock) *ExecutionObject {
	eo := &ExecutionObject{ID: id, clock: clk,
		wake: make(chan struct{}, 1), quit: make(chan struct{}), done: make(chan struct{})}
	go eo.run()
	return eo
}

// Attach schedules a DU on this EO.
func (eo *ExecutionObject) Attach(du DispatchUnit) {
	eo.mu.Lock()
	eo.dus = append(eo.dus, du)
	eo.mu.Unlock()
	eo.Rouse()
}

// DUCount returns the number of scheduled DUs.
func (eo *ExecutionObject) DUCount() int {
	eo.mu.Lock()
	defer eo.mu.Unlock()
	return len(eo.dus)
}

// Steps returns the lifetime number of DU steps executed.
func (eo *ExecutionObject) Steps() int64 { return eo.steps.Load() }

// Panics returns the number of DUs retired after panicking.
func (eo *ExecutionObject) Panics() int64 { return eo.panics.Load() }

func (eo *ExecutionObject) run() {
	defer close(eo.done)
	for {
		select {
		case <-eo.quit:
			return
		default:
		}
		eo.mu.Lock()
		dus := append(eo.pass[:0], eo.dus...)
		eo.mu.Unlock()
		if len(dus) == 0 {
			eo.waitForWork(false)
			continue
		}
		anyProgress := false
		var finished []DispatchUnit
		for _, du := range dus {
			progressed, done := eo.safeStep(du)
			eo.steps.Add(1)
			if progressed {
				anyProgress = true
			}
			if done {
				finished = append(finished, du)
			}
		}
		if len(finished) > 0 {
			eo.mu.Lock()
			for _, f := range finished {
				for i, du := range eo.dus {
					if du == f {
						eo.dus = append(eo.dus[:i], eo.dus[i+1:]...)
						break
					}
				}
			}
			eo.mu.Unlock()
		}
		// Drop the snapshot's references so a retired DU is not kept alive
		// until the next pass overwrites them.
		clear(dus)
		eo.pass = dus[:0]
		if !anyProgress {
			// All DUs idle: park until an input queue rouses us (fjord push
			// queues return control to the consumer when empty, §2.3).
			eo.idle.Add(1)
			eo.waitForWork(true)
		}
	}
}

// safeStep contains a panicking DU: the faulty query is retired and
// logged while the EO and its other DUs keep running — per-query fault
// containment inside one scheduler thread.
func (eo *ExecutionObject) safeStep(du DispatchUnit) (progressed, done bool) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("executor: DU %s panicked and was retired: %v", du.Name(), r)
			eo.panics.Add(1)
			progressed, done = false, true
		}
	}()
	return du.Step()
}

// waitForWork parks the EO until Attach or an input queue rouses it or the
// EO is stopped; with recheck (it has DUs, all idle) also until a
// millisecond passes. run re-checks on return. Input queues rouse their EO
// once per push call (core wires every DU's fjord queues to Rouse), so a
// tuple never waits for the timer; the re-check is for what no queue
// announces, such as a windowed query's quiet timeout, and an EO with no
// DUs has nothing to re-check. Parking instead of sleeping between polls
// matters once the process idles between bursts: a short sleep in an idle
// Go process oversleeps (a 100µs one raised filter_push_wire's median
// latency ~27% once the wire stopped making a syscall per line). The one
// timer is re-armed per park and read as a channel, so a park allocates
// nothing and its expiry starts no goroutine.
func (eo *ExecutionObject) waitForWork(recheck bool) {
	var tick <-chan time.Time
	if recheck {
		if eo.recheck == nil {
			eo.recheck = eo.clock.NewTimer(time.Millisecond)
		} else {
			eo.recheck.Reset(time.Millisecond)
		}
		tick = eo.recheck.C()
	}
	select {
	case <-eo.quit:
	case <-eo.wake:
	case <-tick:
		return
	}
	if recheck && !eo.recheck.Stop() {
		select {
		case <-tick: // it fired as we woke: the next park waits afresh
		default:
		}
	}
}

// Rouse leaves the wake token for an EO parked in waitForWork (or about to
// park there: the token makes it return at once). Safe from any goroutine;
// it never blocks.
func (eo *ExecutionObject) Rouse() {
	select {
	case eo.wake <- struct{}{}:
	default:
	}
}

func (eo *ExecutionObject) stop() {
	close(eo.quit)
	<-eo.done
}

// Executor owns the EO pool and the footprint→class→EO mapping.
type Executor struct {
	eos []*ExecutionObject

	mu      sync.Mutex
	parent  map[string]string // union-find over stream names
	classEO map[string]int    // class root -> EO index
	nextEO  int
	stopped bool
}

// New creates an executor with n Execution Objects (n ≥ 1) on the wall
// clock.
func New(n int) *Executor { return NewWithClock(n, chaos.Real()) }

// NewWithClock creates an executor whose EOs time their idle re-check
// through clk, so schedulers under a VirtualClock are deterministic.
func NewWithClock(n int, clk chaos.Clock) *Executor {
	if n < 1 {
		n = 1
	}
	x := &Executor{
		parent:  make(map[string]string),
		classEO: make(map[string]int),
	}
	for i := 0; i < n; i++ {
		x.eos = append(x.eos, newEO(i, clk))
	}
	return x
}

// EOs exposes the execution objects (stats, tests).
func (x *Executor) EOs() []*ExecutionObject { return x.eos }

func (x *Executor) find(s string) string {
	root := s
	for {
		p, ok := x.parent[root]
		if !ok || p == root {
			break
		}
		root = p
	}
	// Path compression.
	for s != root {
		next := x.parent[s]
		x.parent[s] = root
		s = next
	}
	if _, ok := x.parent[root]; !ok {
		x.parent[root] = root
	}
	return root
}

// ClassFor unions the given streams into one query class and returns its
// canonical key. Queries whose footprints overlap transitively end up in
// the same class (§4.2.2: "query classes for disjoint sets of
// footprints").
func (x *Executor) ClassFor(streams []string) string {
	if len(streams) == 0 {
		return ""
	}
	sorted := append([]string(nil), streams...)
	sort.Strings(sorted)
	x.mu.Lock()
	defer x.mu.Unlock()
	root := x.find(sorted[0])
	for _, s := range sorted[1:] {
		r := x.find(s)
		if r != root {
			// Union: the newly absorbed class keeps the older root so
			// its EO assignment is stable.
			if _, assigned := x.classEO[root]; assigned {
				x.parent[r] = root
			} else {
				x.parent[root] = r
				root = r
			}
		}
	}
	return root
}

// EOForClass returns the EO owning a class, assigning one round-robin on
// first use.
func (x *Executor) EOForClass(class string) *ExecutionObject {
	x.mu.Lock()
	defer x.mu.Unlock()
	root := x.find(class)
	if i, ok := x.classEO[root]; ok {
		return x.eos[i]
	}
	i := x.nextEO % len(x.eos)
	x.nextEO++
	x.classEO[root] = i
	return x.eos[i]
}

// Submit schedules a DU under the class that owns the given streams.
func (x *Executor) Submit(streams []string, du DispatchUnit) *ExecutionObject {
	class := x.ClassFor(streams)
	eo := x.EOForClass(class)
	eo.Attach(du)
	return eo
}

// Stop shuts down all EOs, waiting for their loops to exit. Stop is
// idempotent.
func (x *Executor) Stop() {
	x.mu.Lock()
	if x.stopped {
		x.mu.Unlock()
		return
	}
	x.stopped = true
	x.mu.Unlock()
	for _, eo := range x.eos {
		eo.stop()
	}
}

// String summarizes executor state.
func (x *Executor) String() string {
	var b strings.Builder
	for _, eo := range x.eos {
		fmt.Fprintf(&b, "EO%d: %d DUs, %d steps; ", eo.ID, eo.DUCount(), eo.Steps())
	}
	return strings.TrimSuffix(b.String(), "; ")
}
