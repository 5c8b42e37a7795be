package eddy

import (
	"math/bits"
	"math/rand"
	"sort"

	"telegraphcq/internal/tuple"
)

// SelectivityPolicy ranks modules by an EWMA of their observed output rate:
// for each visit it records pass(0/1)+produced, i.e. expected tuples still
// in flight after the module. Filters that drop a lot and SteMs with low
// join fanout score low and are probed first — the classic
// rank-by-selectivity ordering, but re-estimated continuously so the chain
// re-plans itself when the data drifts. Equally selective modules order by
// index, so observing a module's latency never changes a plan.
type SelectivityPolicy struct {
	rng     *rand.Rand
	rate    []float64 // EWMA of pass+produced per visit; lower is better
	alpha   float64
	explore float64
}

// NewSelectivityPolicy creates a selectivity-ranking policy seeded
// deterministically (the seed only drives exploration).
func NewSelectivityPolicy(seed int64) *SelectivityPolicy {
	return &SelectivityPolicy{
		rng:     rand.New(rand.NewSource(seed)),
		alpha:   1.0 / 32,
		explore: 0.05,
	}
}

// Reset implements Policy.
func (p *SelectivityPolicy) Reset(n int) {
	p.rate = make([]float64, n)
	for i := range p.rate {
		p.rate[i] = 1 // optimistic prior: every module starts mid-rank
	}
}

// Choose implements Policy: the lowest-rate ready module, with a small
// exploration probability so a module whose selectivity improved after a
// drift can re-earn its slot.
func (p *SelectivityPolicy) Choose(_ *tuple.Tuple, ready uint64) int {
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
	best := -1
	for r := ready; r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(r)
		if best < 0 || p.less(i, best) {
			best = i
		}
	}
	return best
}

// less ranks module a strictly before b: lower EWMA rate first, index
// breaking ties.
func (p *SelectivityPolicy) less(a, b int) bool {
	if p.rate[a] != p.rate[b] {
		return p.rate[a] < p.rate[b]
	}
	return a < b
}

// ChooseOrder implements Policy: all ready modules sorted by EWMA rate
// ascending. With probability explore one random module is promoted to the
// front of the chain so stale estimates keep getting refreshed.
func (p *SelectivityPolicy) ChooseOrder(_ uint64, ready uint64) []int {
	out := setBits(ready)
	sort.SliceStable(out, func(a, b int) bool { return p.less(out[a], out[b]) })
	if len(out) > 1 && p.explore > 0 && p.rng.Float64() < p.explore {
		k := p.rng.Intn(len(out))
		out[0], out[k] = out[k], out[0]
	}
	return out
}

// CurrentOrder implements Policy: the deterministic ranking, no
// exploration and no RNG mutation.
func (p *SelectivityPolicy) CurrentOrder(n int) []int {
	if n > len(p.rate) {
		n = len(p.rate)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	sort.SliceStable(out, func(a, b int) bool { return p.less(out[a], out[b]) })
	return out
}

// Observe implements Policy: fold pass+produced into the module's EWMA.
// Probes always "pass" in the eddy, so join selectivity shows up entirely
// through produced (fanout); filters show up through the pass bit.
func (p *SelectivityPolicy) Observe(idx int, pass bool, produced int) {
	sample := float64(produced)
	if pass {
		sample++
	}
	p.rate[idx] += p.alpha * (sample - p.rate[idx])
}
