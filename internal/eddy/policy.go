package eddy

import (
	"math/bits"
	"math/rand"
	"sort"

	"telegraphcq/internal/tuple"
)

// Policy decides which ready module a tuple visits next and learns from the
// outcome. Policies are the eddy's whole optimizer: ordering of operations
// is reconsidered on every decision (§2.1).
type Policy interface {
	// Reset prepares the policy for n modules.
	Reset(n int)
	// Choose returns the index of a module whose bit is set in ready.
	Choose(t *tuple.Tuple, ready uint64) int
	// ChooseOrder plans a full visit order for one lineage-homogeneous
	// batch: a permutation of the set ready bits, best module first. sig
	// identifies the batch's (source, ready) signature so stateful
	// policies can keep per-signature plans. The eddy's N-way path makes
	// one ChooseOrder call per batch (cached per signature) instead of a
	// per-hop Choose draw.
	ChooseOrder(sig uint64, ready uint64) []int
	// Observe reports the outcome of routing a tuple to module idx.
	Observe(idx int, pass bool, produced int)
	// CurrentOrder returns the present ranking of n modules without
	// perturbing any state (no RNG draws): EXPLAIN's probe order.
	CurrentOrder(n int) []int
}

// PolicyName reports a routing policy's kind for EXPLAIN/telemetry.
func PolicyName(p Policy) string {
	switch p.(type) {
	case *FixedPolicy:
		return "fixed"
	case *LotteryPolicy:
		return "lottery"
	case *SelectivityPolicy:
		return "selectivity"
	default:
		return "custom"
	}
}

// setBits appends the indexes of ready's set bits in ascending order.
func setBits(ready uint64) []int {
	out := make([]int, 0, bits.OnesCount64(ready))
	for r := ready; r != 0; r &= r - 1 {
		out = append(out, bits.TrailingZeros64(r))
	}
	return out
}

// FixedPolicy routes every tuple through a fixed module order, emulating a
// conventional static plan inside the eddy harness (the baseline in E2 and
// the static arms of the E18 drift pin). With no order it visits modules
// in index order, the eddy's default when given no policy.
type FixedPolicy struct {
	order []int // module index -> rank; lower rank first
}

// NewFixedPolicy fixes the visit order to the given module indexes;
// modules not listed are visited last in index order.
func NewFixedPolicy(order ...int) *FixedPolicy {
	p := &FixedPolicy{order: make([]int, 64)}
	for i := range p.order {
		p.order[i] = 64 + i
	}
	for rank, idx := range order {
		if idx < 64 {
			p.order[idx] = rank
		}
	}
	return p
}

// Reset implements Policy: the order does not learn.
func (*FixedPolicy) Reset(int) {}

// Choose implements Policy.
func (p *FixedPolicy) Choose(_ *tuple.Tuple, ready uint64) int {
	best, bestRank := -1, int(^uint(0)>>1)
	for r := ready; r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(r)
		if p.order[i] < bestRank {
			best, bestRank = i, p.order[i]
		}
	}
	return best
}

// ChooseOrder implements Policy: the fixed ranks decide the whole chain.
func (p *FixedPolicy) ChooseOrder(_ uint64, ready uint64) []int {
	out := setBits(ready)
	sort.SliceStable(out, func(a, b int) bool { return p.order[out[a]] < p.order[out[b]] })
	return out
}

// CurrentOrder implements Policy.
func (p *FixedPolicy) CurrentOrder(n int) []int {
	if n > 64 {
		n = 64
	}
	return p.ChooseOrder(0, (uint64(1)<<uint(n))-1)
}

// Observe implements Policy.
func (*FixedPolicy) Observe(int, bool, int) {}

// LotteryPolicy implements the ticket-based routing of [AH00] as extended
// by CACQ: each module holds tickets; a module gains a ticket when it
// consumes a tuple (drops it or filters work downstream) and is debited
// when it produces output. Low-selectivity modules therefore accumulate
// tickets and are favoured, pushing cheap, selective work early. A small
// exploration probability keeps stale selectivity estimates refreshable —
// this is what lets the eddy re-optimize mid-query when data drifts.
type LotteryPolicy struct {
	rng     *rand.Rand
	tickets []int64
	window  []int64 // decaying window so old observations wash out
	decayN  int64
	explore float64 // probability of a uniform random choice
	seen    int64
}

// NewLotteryPolicy creates a lottery policy seeded deterministically.
func NewLotteryPolicy(seed int64) *LotteryPolicy {
	return &LotteryPolicy{
		rng:     rand.New(rand.NewSource(seed)),
		decayN:  512,
		explore: 0.05,
	}
}

// Reset implements Policy.
func (p *LotteryPolicy) Reset(n int) {
	p.tickets = make([]int64, n)
	p.window = make([]int64, n)
	for i := range p.tickets {
		p.tickets[i] = 1
	}
}

// Choose implements Policy.
func (p *LotteryPolicy) Choose(_ *tuple.Tuple, ready uint64) int {
	if bits.OnesCount64(ready) == 1 {
		return bits.TrailingZeros64(ready)
	}
	if p.explore > 0 && p.rng.Float64() < p.explore {
		k := p.rng.Intn(bits.OnesCount64(ready))
		for r := ready; ; r &= r - 1 {
			i := bits.TrailingZeros64(r)
			if k == 0 {
				return i
			}
			k--
		}
	}
	var total int64
	for r := ready; r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(r)
		total += p.tickets[i]
	}
	pick := p.rng.Int63n(total)
	for r := ready; ; r &= r - 1 {
		i := bits.TrailingZeros64(r)
		pick -= p.tickets[i]
		if pick < 0 {
			return i
		}
	}
}

// Observe implements Policy.
func (p *LotteryPolicy) Observe(idx int, pass bool, produced int) {
	// Consume: +1 ticket. Produce: -1 per output (never below 1 so every
	// module keeps a chance, which is also what keeps exploration alive).
	if !pass {
		p.tickets[idx] += 2 // dropping a tuple is maximally selective
	} else {
		p.tickets[idx]++
	}
	p.tickets[idx] -= int64(produced)
	if p.tickets[idx] < 1 {
		p.tickets[idx] = 1
	}
	// Periodic decay halves all tickets so the policy tracks drift.
	p.seen++
	if p.seen%p.decayN == 0 {
		for i := range p.tickets {
			if p.tickets[i] > 1 {
				p.tickets[i] = (p.tickets[i] + 1) / 2
			}
		}
	}
}

// ChooseOrder implements Policy: repeated ticket-weighted draws without
// replacement, so high-ticket (selective) modules tend to lead the chain
// while the RNG still explores alternative orders occasionally.
func (p *LotteryPolicy) ChooseOrder(_ uint64, ready uint64) []int {
	out := make([]int, 0, bits.OnesCount64(ready))
	rest := ready
	for rest != 0 {
		out = append(out, p.Choose(nil, rest))
		rest &^= uint64(1) << uint(out[len(out)-1])
	}
	return out
}

// CurrentOrder implements Policy: modules ranked by tickets, highest first,
// without touching the RNG.
func (p *LotteryPolicy) CurrentOrder(n int) []int {
	if n > len(p.tickets) {
		n = len(p.tickets)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	sort.SliceStable(out, func(a, b int) bool {
		return p.tickets[out[a]] > p.tickets[out[b]]
	})
	return out
}

// Tickets exposes the current ticket counts (for experiments/diagnostics).
func (p *LotteryPolicy) Tickets() []int64 {
	return append([]int64(nil), p.tickets...)
}
