package tuple

import (
	"math/rand"
	"testing"
)

// TestMaskResetAndBits: Reset clears every bit a previous batch set,
// across word boundaries, and Set marks exactly the row it names.
func TestMaskResetAndBits(t *testing.T) {
	var m Mask
	for _, n := range []int{1, 63, 64, 65, 128, 200} {
		m.Reset(n)
		for i := 0; i < n; i++ {
			if m.Test(i) {
				t.Fatalf("Reset(%d): bit %d still set", n, i)
			}
			m.Set(i)
			if !m.Test(i) {
				t.Fatalf("Reset(%d): Set(%d) did not stick", n, i)
			}
		}
	}
}

// TestMaskProperties checks mask bit operations against a reference
// boolean slice under random operation sequences, reusing one mask across
// trials as a filter reuses its mask across batches.
func TestMaskProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var m Mask
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		m.Reset(n)
		ref := make([]bool, n)
		for op := 0; op < 200; op++ {
			i := rng.Intn(n)
			m.Set(i)
			ref[i] = true
		}
		for i, want := range ref {
			if m.Test(i) != want {
				t.Fatalf("trial %d: bit %d = %v, want %v", trial, i, m.Test(i), want)
			}
		}
	}
}

// TestBatchPartitionByMask checks the shared partition helper: survivors
// to the front, dropped after, both stably ordered, nothing lost.
func TestBatchPartitionByMask(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(100)
		var b Batch
		for i := 0; i < n; i++ {
			b.Append(New(Int(int64(i))))
		}
		var m Mask
		m.Reset(n)
		var pass, fail []int64
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				m.Set(i)
				pass = append(pass, int64(i))
			} else {
				fail = append(fail, int64(i))
			}
		}
		got := b.PartitionByMask(&m)
		if got != len(pass) {
			t.Fatalf("trial %d: partition = %d, want %d", trial, got, len(pass))
		}
		for i, id := range pass {
			if b.Tuples[i].Vals[0].AsInt() != id {
				t.Fatalf("trial %d: survivor order broken at %d", trial, i)
			}
		}
		for i, id := range fail {
			if b.Tuples[got+i].Vals[0].AsInt() != id {
				t.Fatalf("trial %d: dropped order broken at %d", trial, i)
			}
		}
	}
}
