package eddy

import (
	"math/bits"
	"math/rand"
	"testing"

	"telegraphcq/internal/tuple"
)

// allPolicies builds one instance of every routing policy kind, reset for n
// modules.
func allPolicies(n int) map[string]Policy {
	ps := map[string]Policy{
		"default":     NewFixedPolicy(),
		"fixed":       NewFixedPolicy(2, 0, 1),
		"lottery":     NewLotteryPolicy(7),
		"selectivity": NewSelectivityPolicy(7),
	}
	for _, p := range ps {
		p.Reset(n)
	}
	return ps
}

// TestPolicyReadyBitsProperty checks the routing contract for every policy:
// Choose only returns indexes whose bit is set in ready, and ChooseOrder
// returns exactly a permutation of ready's set bits — no repeats, no
// modules outside the ready set, none missing.
func TestPolicyReadyBitsProperty(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(42))
	for name, p := range allPolicies(n) {
		for trial := 0; trial < 500; trial++ {
			ready := uint64(rng.Intn(1<<n-1) + 1) // nonzero subset of n bits
			idx := p.Choose(&tuple.Tuple{Source: tuple.SourceSet(1)}, ready)
			if idx < 0 || idx >= n || ready&(1<<uint(idx)) == 0 {
				t.Fatalf("%s: Choose(ready=%06b) = %d, not a ready module", name, ready, idx)
			}
			p.Observe(idx, rng.Intn(2) == 0, rng.Intn(3))

			order := p.ChooseOrder(uint64(trial), ready)
			if len(order) != bits.OnesCount64(ready) {
				t.Fatalf("%s: ChooseOrder(ready=%06b) = %v, want %d entries",
					name, ready, order, bits.OnesCount64(ready))
			}
			var seen uint64
			for _, i := range order {
				if i < 0 || i >= n || ready&(1<<uint(i)) == 0 {
					t.Fatalf("%s: ChooseOrder(ready=%06b) = %v contains non-ready %d",
						name, ready, order, i)
				}
				if seen&(1<<uint(i)) != 0 {
					t.Fatalf("%s: ChooseOrder(ready=%06b) = %v repeats %d", name, ready, order, i)
				}
				seen |= 1 << uint(i)
			}
		}
	}
}

// TestCurrentOrderDeterministic checks the EXPLAIN view: CurrentOrder must
// not perturb policy state, so consecutive calls agree.
func TestCurrentOrderDeterministic(t *testing.T) {
	for name, p := range allPolicies(4) {
		a := p.CurrentOrder(4)
		b := p.CurrentOrder(4)
		if len(a) != len(b) {
			t.Fatalf("%s: CurrentOrder changed length across calls: %v vs %v", name, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: CurrentOrder not stable: %v vs %v", name, a, b)
			}
		}
	}
}

// TestBatchingCacheBounded drives the eddy's per-signature plan cache —
// where §4.3's batching lives — through more distinct (source, ready)
// signatures than it admits and checks it stays capped, and that a policy
// swap discards it entirely.
func TestBatchingCacheBounded(t *testing.T) {
	// Two module slots for ready = 0b11; planning never calls into them.
	e := New(0, NewLotteryPolicy(1), nil, nil, nil)
	e.SetNWay(4)
	for i := 0; i < orderCacheCap*2; i++ {
		e.chooseNWay(&tuple.Tuple{Source: tuple.SourceSet(i + 1)}, 3)
		if len(e.orderCache) > orderCacheCap {
			t.Fatalf("cache grew to %d entries, cap is %d", len(e.orderCache), orderCacheCap)
		}
	}
	if len(e.orderCache) == 0 {
		t.Fatal("cache unexpectedly empty after warm-up")
	}
	e.SetPolicy(NewLotteryPolicy(1))
	if len(e.orderCache) != 0 {
		t.Fatalf("SetPolicy left %d cached plans", len(e.orderCache))
	}
}

// driftPhase simulates the two-filter eddy pass-through for one selectivity
// regime: every tuple visits the policy's first choice, and — if it
// survives — the other module too, so the policy observes both modules'
// drop rates exactly as a live eddy would. Returns how often each module
// was chosen first.
func driftPhase(p Policy, rng *rand.Rand, dropProb [2]float64, steps int) (first [2]int) {
	for s := 0; s < steps; s++ {
		idx := p.Choose(&tuple.Tuple{Source: tuple.SourceSet(1)}, 3)
		first[idx]++
		pass := rng.Float64() >= dropProb[idx]
		p.Observe(idx, pass, 0)
		if pass {
			other := 1 - idx
			p.Observe(other, rng.Float64() >= dropProb[other], 0)
		}
	}
	return first
}

// TestDriftReconvergence flips the selective module mid-stream and checks
// the adaptive policies re-learn the order: module 0 drops 90% in phase 1,
// module 1 drops 90% in phase 2. After each phase the policy's
// deterministic ranking (the EXPLAIN probe order) must lead with the
// selective module. This is the §2.1 claim that made eddies interesting —
// the plan re-optimizes while the query runs.
func TestDriftReconvergence(t *testing.T) {
	for name, p := range map[string]Policy{
		"lottery":     NewLotteryPolicy(3),
		"selectivity": NewSelectivityPolicy(3),
	} {
		p.Reset(2)
		rng := rand.New(rand.NewSource(99))

		driftPhase(p, rng, [2]float64{0.9, 0.1}, 4000)
		if got := p.CurrentOrder(2); got[0] != 0 {
			t.Fatalf("%s: after phase 1 (module 0 selective) ranking = %v, want module 0 first", name, got)
		}
		counts := driftPhase(p, rng, [2]float64{0.9, 0.1}, 1000)
		if counts[0] <= counts[1] {
			t.Fatalf("%s: phase 1 steady state chose module 0 first %d/%d times, expected majority",
				name, counts[0], counts[0]+counts[1])
		}

		// The drift: selectivities swap mid-stream.
		driftPhase(p, rng, [2]float64{0.1, 0.9}, 4000)
		if got := p.CurrentOrder(2); got[0] != 1 {
			t.Fatalf("%s: after drift (module 1 selective) ranking = %v, want module 1 first", name, got)
		}
		counts = driftPhase(p, rng, [2]float64{0.1, 0.9}, 1000)
		if counts[1] <= counts[0] {
			t.Fatalf("%s: post-drift steady state chose module 1 first %d/%d times, expected majority",
				name, counts[1], counts[0]+counts[1])
		}
	}
}
