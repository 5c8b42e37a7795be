package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"time"

	"telegraphcq/internal/tuple"
)

// Fault is one kind of injected perturbation.
type Fault uint8

// Fault kinds. None means the operation proceeds unperturbed.
const (
	None    Fault = iota
	Drop          // swallow a tuple at a queue boundary
	Delay         // hold a tuple for a seeded duration before delivery
	Dup           // deliver a tuple twice
	Reorder       // swap a tuple with its successor
	Crash         // kill a Flux node mid-stream
	Stall         // slow-consumer pause inside a Flux node
	Reset         // sever the server proxy's upstream connection
)

// String names the fault.
func (f Fault) String() string {
	switch f {
	case None:
		return "none"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Dup:
		return "dup"
	case Reorder:
		return "reorder"
	case Crash:
		return "crash"
	case Stall:
		return "stall"
	case Reset:
		return "reset"
	default:
		return "unknown"
	}
}

// Config sets the injection probabilities (each in [0,1], drawn
// independently in the order declared here) and fault magnitudes.
type Config struct {
	// Seed is the root seed; every site derives its own RNG stream from
	// it, so decisions are deterministic per site regardless of how
	// goroutines interleave across sites.
	Seed int64

	Drop    float64
	Delay   float64
	Dup     float64
	Reorder float64
	Crash   float64
	Stall   float64
	Reset   float64

	// MaxDelay caps Delay/Stall durations (default 1ms).
	MaxDelay time.Duration
}

// Event is one recorded injection decision. N is the site-local decision
// index, so traces compare deterministically even though sites interleave.
type Event struct {
	Site  string
	N     int64
	Fault Fault
}

// String renders the event ("flux/node2#17:crash").
func (e Event) String() string { return fmt.Sprintf("%s#%d:%s", e.Site, e.N, e.Fault) }

// Injector hands out per-site fault decision streams and records every
// non-None decision into an event trace for seed-reproduction checks.
type Injector struct {
	cfg Config
	clk Clock

	mu       sync.Mutex
	sites    map[string]*Site
	events   []Event
	observer func(Event)
}

// SetObserver installs fn to see every recorded fault event as it happens
// (the introspection subsystem feeds tcq.chaos from it). fn runs on the
// faulting goroutine outside the injector lock and must not block.
func (in *Injector) SetObserver(fn func(Event)) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.observer = fn
	in.mu.Unlock()
}

// New builds an injector over cfg, using clk for injected delays. A nil
// clk defaults to the real clock.
func New(cfg Config, clk Clock) *Injector {
	if clk == nil {
		clk = Real()
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = time.Millisecond
	}
	return &Injector{cfg: cfg, clk: clk, sites: make(map[string]*Site)}
}

// Seed returns the root seed (for failure messages).
func (in *Injector) Seed() int64 { return in.cfg.Seed }

// Clock returns the clock injected faults sleep on.
func (in *Injector) Clock() Clock { return in.clk }

// Site returns the named decision stream, creating it on first use. The
// site's RNG is seeded by the root seed and the site name only, so the
// same (seed, name) pair always yields the same decision sequence.
func (in *Injector) Site(name string) *Site {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s, ok := in.sites[name]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(name))
		s = &Site{
			name: name,
			inj:  in,
			rng:  rand.New(rand.NewSource(in.cfg.Seed ^ int64(h.Sum64()))),
		}
		in.sites[name] = s
	}
	return s
}

func (in *Injector) record(ev Event) {
	in.mu.Lock()
	if len(in.events) < 1<<16 { // bound the trace; campaigns stay well under
		in.events = append(in.events, ev)
	}
	obs := in.observer
	in.mu.Unlock()
	if obs != nil {
		obs(ev)
	}
}

// Trace returns a copy of the recorded events, sorted deterministically by
// (site, site-local index) so traces from different interleavings of the
// same seed compare equal.
func (in *Injector) Trace() []Event {
	in.mu.Lock()
	out := append([]Event(nil), in.events...)
	in.mu.Unlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func less(a, b Event) bool {
	if a.Site != b.Site {
		return a.Site < b.Site
	}
	return a.N < b.N
}

// TraceString renders the trace one event per line (failure diagnostics).
func (in *Injector) TraceString() string {
	evs := in.Trace()
	lines := make([]string, len(evs))
	for i, e := range evs {
		lines[i] = e.String()
	}
	return strings.Join(lines, "\n")
}

// Site is one named fault-decision stream. All methods are nil-safe so hot
// paths can hold a nil *Site when injection is off: a nil site always
// decides None.
type Site struct {
	name string
	inj  *Injector

	mu   sync.Mutex
	rng  *rand.Rand
	n    int64
	held *tuple.Tuple // Reorder hold slot
}

// Next draws the site's next fault decision. Probabilities are evaluated
// against a single uniform draw in Config field order, so the decision
// stream is a pure function of (seed, site name, call index).
func (s *Site) Next() Fault {
	if s == nil {
		return None
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextLocked()
}

func (s *Site) nextLocked() Fault {
	s.n++
	u := s.rng.Float64()
	cfg := &s.inj.cfg
	cum := 0.0
	for _, p := range []struct {
		prob float64
		f    Fault
	}{
		{cfg.Drop, Drop}, {cfg.Delay, Delay}, {cfg.Dup, Dup}, {cfg.Reorder, Reorder},
		{cfg.Crash, Crash}, {cfg.Stall, Stall}, {cfg.Reset, Reset},
	} {
		cum += p.prob
		if u < cum {
			s.inj.record(Event{Site: s.name, N: s.n, Fault: p.f})
			return p.f
		}
	}
	return None
}

// DelayFor draws a seeded duration in (0, MaxDelay] for Delay/Stall faults.
func (s *Site) DelayFor() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.rng.Int63n(int64(s.inj.cfg.MaxDelay))) + 1
}

// PerturbSend applies one tuple-stream fault decision at a queue boundary,
// delivering through send. Drop swallows the tuple (reported as
// delivered, matching shed-at-boundary semantics); Delay sleeps the
// injector's clock; Dup delivers twice; Reorder swaps the tuple with its
// successor via a one-slot hold. Other faults pass through unperturbed.
func (s *Site) PerturbSend(t *tuple.Tuple, send func(*tuple.Tuple) bool) bool {
	if s == nil {
		return send(t)
	}
	s.mu.Lock()
	f := s.nextLocked()
	var delay time.Duration
	if f == Delay {
		delay = time.Duration(s.rng.Int63n(int64(s.inj.cfg.MaxDelay))) + 1
	}
	var flush *tuple.Tuple
	switch f {
	case Reorder:
		if s.held == nil {
			s.held = t
			s.mu.Unlock()
			return true
		}
		flush, s.held = s.held, nil
	default:
		if s.held != nil {
			flush, s.held = s.held, nil
		}
	}
	clk := s.inj.clk
	s.mu.Unlock()

	switch f {
	case Drop:
		if flush != nil {
			send(flush)
		}
		return true
	case Delay:
		clk.Sleep(delay)
	case Dup:
		send(t)
	}
	ok := send(t)
	if flush != nil {
		send(flush)
	}
	return ok
}

// Flush delivers any tuple still parked in the Reorder hold slot; call it
// at end-of-stream so reordering never turns into loss.
func (s *Site) Flush(send func(*tuple.Tuple) bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	t := s.held
	s.held = nil
	s.mu.Unlock()
	if t != nil {
		send(t)
	}
}
