// Package chaos provides the deterministic fault-injection substrate the
// engine's "uncertain world" machinery is tested with: an injectable Clock
// (real and virtual implementations) and a seeded Injector that perturbs
// hot paths — tuple drop/delay/duplicate/reorder at Fjord queue
// boundaries, node crashes and slow-consumer stalls in Flux, and
// connection resets in the server proxy. Every
// decision an Injector makes is drawn from a per-site RNG stream derived
// from one seed, so a whole chaos run is reproducible: a failing trial
// prints its seed and rerunning with that seed replays the identical
// event trace.
package chaos

import (
	"sync"
	"time"
)

// Clock abstracts the time operations the engine's hot paths need, so
// tests can substitute a virtual clock and make timing deterministic.
// Production code outside this package must reach time only through a
// Clock (tcqlint's clockcheck analyzer enforces it).
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
	// Sleep pauses the calling goroutine for d.
	Sleep(d time.Duration)
	// After returns a channel that delivers the then-current time once d
	// has elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a timer that delivers the then-current time on its
	// channel once d has elapsed: After, but stoppable and re-armable, so a
	// loop that waits with a timeout over and over needs one timer, not one
	// per wait (and no goroutine per expiry, as a timer running a function
	// would).
	NewTimer(d time.Duration) Timer
}

// Timer is the handle returned by NewTimer.
type Timer interface {
	// C is the channel the timer delivers on (one-element buffered).
	C() <-chan time.Time
	// Stop prevents the timer from firing, reporting whether it did. A
	// value it already delivered stays in C.
	Stop() bool
	// Reset re-arms the timer to fire once d has elapsed, whether or not it
	// has fired or been stopped, reporting whether it was still pending.
	Reset(d time.Duration) bool
}

// realClock implements Clock with the time package. This is the one place
// in the repo allowed to call time.Now/time.Sleep/time.After on behalf of
// flux, fjord and ingress production code.
type realClock struct{}

// Real returns the wall-clock implementation of Clock.
func Real() Clock { return realClock{} }

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) NewTimer(d time.Duration) Timer         { return realTimer{time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time        { return r.t.C }
func (r realTimer) Stop() bool                 { return r.t.Stop() }
func (r realTimer) Reset(d time.Duration) bool { return r.t.Reset(d) }

// VirtualClock is a deterministic simulated clock: time advances only via
// Advance (or, in auto-advance mode, when a goroutine sleeps). Timers fire
// in deadline order as the clock passes them, so a run's timing behaviour
// is a pure function of the sequence of Advance calls — no wall-clock
// dependence and no timing flakiness.
type VirtualClock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	now    time.Time
	timers []*vtimer
	auto   bool
	seq    uint64 // tie-break so equal deadlines fire in creation order
}

// vtimer is a VirtualClock timer: pending while it is in the clock's
// timers list.
type vtimer struct {
	clk      *VirtualClock
	deadline time.Time
	seq      uint64
	ch       chan time.Time
}

// NewVirtual returns a virtual clock starting at start. The zero time is a
// fine start for tests that only care about durations.
func NewVirtual(start time.Time) *VirtualClock {
	v := &VirtualClock{now: start}
	v.cond = sync.NewCond(&v.mu)
	return v
}

// SetAutoAdvance controls auto-advance mode: when on, a goroutine calling
// Sleep advances the clock to its own deadline instead of blocking until
// an external Advance. Polling loops (WaitIdle-style) then terminate
// promptly and deterministically without any goroutine driving the clock.
func (v *VirtualClock) SetAutoAdvance(on bool) {
	v.mu.Lock()
	v.auto = on
	v.mu.Unlock()
}

// Now implements Clock.
func (v *VirtualClock) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since implements Clock.
func (v *VirtualClock) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Advance moves the clock forward by d, firing every timer whose deadline
// is passed, in deadline order.
func (v *VirtualClock) Advance(d time.Duration) {
	v.mu.Lock()
	v.advanceToLocked(v.now.Add(d))
	v.mu.Unlock()
}

// advanceToLocked moves time to target, firing due timers in (deadline,
// creation) order.
func (v *VirtualClock) advanceToLocked(target time.Time) {
	if target.Before(v.now) {
		return
	}
	for {
		var next *vtimer
		idx := -1
		for i, t := range v.timers {
			if t.deadline.After(target) {
				continue
			}
			if next == nil || t.deadline.Before(next.deadline) ||
				(t.deadline.Equal(next.deadline) && t.seq < next.seq) {
				next, idx = t, i
			}
		}
		if next == nil {
			break
		}
		v.timers = append(v.timers[:idx], v.timers[idx+1:]...)
		if v.now.Before(next.deadline) {
			v.now = next.deadline
		}
		select {
		case next.ch <- v.now:
		default: // a re-armed timer whose last value nobody took
		}
	}
	v.now = target
	v.cond.Broadcast()
}

// Sleep implements Clock. In auto-advance mode the sleeper drives the
// clock to its own deadline; otherwise it blocks until Advance passes it.
func (v *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	deadline := v.now.Add(d)
	if v.auto {
		v.advanceToLocked(deadline)
		v.mu.Unlock()
		return
	}
	for v.now.Before(deadline) {
		v.cond.Wait()
	}
	v.mu.Unlock()
}

// After implements Clock. The channel fires when Advance passes the
// deadline (buffered so the advancer never blocks).
func (v *VirtualClock) After(d time.Duration) <-chan time.Time { return v.NewTimer(d).C() }

// NewTimer implements Clock.
func (v *VirtualClock) NewTimer(d time.Duration) Timer {
	t := &vtimer{clk: v, ch: make(chan time.Time, 1)}
	t.Reset(d)
	return t
}

// C implements Timer.
func (t *vtimer) C() <-chan time.Time { return t.ch }

// Stop implements Timer.
func (t *vtimer) Stop() bool {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	return t.unlinkLocked()
}

// Reset implements Timer: the timer leaves the pending set if it is still
// there and rejoins it due d from now, behind every timer already due then.
func (t *vtimer) Reset(d time.Duration) bool {
	v := t.clk
	v.mu.Lock()
	defer v.mu.Unlock()
	pending := t.unlinkLocked()
	v.seq++
	t.deadline, t.seq = v.now.Add(d), v.seq
	v.timers = append(v.timers, t)
	return pending
}

// unlinkLocked removes the timer from the clock's pending set, reporting
// whether it was there (a fired or stopped timer is not).
func (t *vtimer) unlinkLocked() bool {
	for i, p := range t.clk.timers {
		if p == t {
			t.clk.timers = append(t.clk.timers[:i], t.clk.timers[i+1:]...)
			return true
		}
	}
	return false
}

// Poll re-evaluates cond every interval until it returns true or timeout
// elapses, reporting whether the condition held. It is the repo's
// replacement for ad-hoc sleep-based test waits: the wait is bounded,
// condition-driven, and clock-injectable.
func Poll(clk Clock, timeout, interval time.Duration, cond func() bool) bool {
	if clk == nil {
		clk = Real()
	}
	deadline := clk.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if !clk.Now().Before(deadline) {
			return false
		}
		clk.Sleep(interval)
	}
}
