package tuple

// Arena recycles Block slabs. Get returns a block for a given width and
// row count — reusing a released block of the same shape when one is
// free, otherwise carving fresh slabs — and Release (or Block.Release)
// returns a block's memory for reuse. In steady state every block the
// hot path touches comes off a free list, so the columnar runtime's
// per-tuple allocation count is amortized to ~0.
//
// An Arena is deliberately not goroutine-safe: it belongs to the single
// executor goroutine that owns a columnar runtime (the same single-writer
// discipline internal/arrange uses). Blocks handed to an egress are
// released back on that same goroutine when they age out of retention.
//
// Lifetime rules, machine-enforced by tcqlint's ownercheck:
//
//  1. Release means the caller holds the only live reference; reading or
//     appending after Release panics at runtime and is flagged statically.
//  2. A reused block's slabs are fully overwritten by appends before any
//     row becomes visible (n starts at 0), so recycled memory can never
//     alias rows a reader still holds — the aliasing property test in
//     block_test.go pins this.
type Arena struct {
	free map[arenaKey][]*Block

	gets     int64
	reuses   int64
	releases int64
}

type arenaKey struct{ width, rcap int }

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{free: make(map[arenaKey][]*Block)}
}

// arenaRound rounds a requested row count up to a power of two (min 64)
// so free-listed blocks match future requests of similar size.
func arenaRound(rows int) int {
	c := 64
	for c < rows {
		c <<= 1
	}
	return c
}

// Get returns an empty block of the given width with capacity for at
// least rows rows. Audited amortization point: free-list bookkeeping and
// the miss-path slab carve are per-block costs, amortized across every
// row the block will hold (core.TestColumnarSteadyStateAllocs pins the
// realized rate).
//
//tcq:coldpath
func (a *Arena) Get(width, rows int) *Block {
	a.gets++
	key := arenaKey{width: width, rcap: arenaRound(rows)}
	if list := a.free[key]; len(list) > 0 {
		b := list[len(list)-1]
		list[len(list)-1] = nil
		a.free[key] = list[:len(list)-1]
		a.reuses++
		b.released = false
		b.n = 0
		return b
	}
	return newBlock(a, width, key.rcap)
}

// put returns a released block to the free list (called by Block.Release).
// Audited amortization point: one map/slice insert per released block.
//
//tcq:coldpath
func (a *Arena) put(b *Block) {
	a.releases++
	key := arenaKey{width: b.width, rcap: b.rcap}
	a.free[key] = append(a.free[key], b)
}

// Release returns b's slabs to the arena; b must not be used afterwards.
func (a *Arena) Release(b *Block) { b.Release() }

// Stats returns lifetime get, reuse, and release counts (reuse/get is the
// arena hit rate).
func (a *Arena) Stats() (gets, reuses, releases int64) {
	return a.gets, a.reuses, a.releases
}

// newBlock carves a block's row state out of three slabs: one Value slab
// for all columns, one int64 slab for ts+seq, one uint64 slab for
// src+ready+done. Block count and row capacity, not row count, determine
// allocation count.
//
//tcq:coldpath
func newBlock(a *Arena, width, rcap int) *Block {
	b := &Block{width: width, rcap: rcap, arena: a}
	b.vals = make([]Value, width*rcap)
	b.cols = make([][]Value, width)
	for j := 0; j < width; j++ {
		b.cols[j] = b.vals[j*rcap : (j+1)*rcap : (j+1)*rcap]
	}
	i64s := make([]int64, 2*rcap)
	b.ts = i64s[:rcap:rcap]
	b.seq = i64s[rcap : 2*rcap : 2*rcap]
	u64s := make([]uint64, 3*rcap)
	b.src = u64s[:rcap:rcap]
	b.rdy = u64s[rcap : 2*rcap : 2*rcap]
	b.done = u64s[2*rcap : 3*rcap : 3*rcap]
	return b
}

// NewBlock returns a standalone block (no arena); Release only poisons
// it. Tests and one-shot conversions use this.
func NewBlock(width, rows int) *Block {
	return newBlock(nil, width, arenaRound(rows))
}
