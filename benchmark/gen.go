package main

import (
	"strconv"
)

// rec is one generated input tuple before its born column is assigned:
// the stream it belongs to and its leading columns. Every generator is a
// pure function of (seed, index) so any two runs with one seed feed the
// program byte-identical input, and the reference evaluators can recompute
// any tuple without storing the stream.
type rec struct {
	stream uint8
	c      [3]int64
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hash2(seed uint64, salt, idx uint64) (uint64, uint64) {
	h := mix(mix(seed+salt*0x632be59bd9b4e019) ^ idx)
	return h, mix(h)
}

// genFilter: S(k, v): k arbitrary, v uniform in [0,1000) so v < 500 keeps half.
func genFilter(seed uint64, idx int) rec {
	h1, h2 := hash2(seed, 1, uint64(idx))
	return rec{c: [3]int64{int64(h1 % 1000000), int64(h2 % 1000)}}
}

// joinBlock is the shuffle block: keys are unique per stream and permuted
// within blocks of this many consecutive orders.
const joinBlock = 8192

// joinKey maps order number i to its key: a seed-dependent bijection inside
// each block (odd multiplier modulo a power of two), so keys never repeat
// on a stream but do not arrive sorted.
func joinKey(seed uint64, i int) int64 {
	block := uint64(i / joinBlock)
	a, b := hash2(seed, 2, block)
	j := (uint64(i%joinBlock)*(a|1) + b) % joinBlock
	return int64(block*joinBlock + j)
}

// genJoin interleaves orders(k, v) and pays(k, w): the first joinLag
// elements are orders; after that orders and payments alternate, payment p
// paying order p, so each payment finds its order already built and yields
// exactly one result.
func genJoin(seed uint64, idx int) rec {
	if idx < joinLag {
		return joinOrder(seed, idx)
	}
	j := idx - joinLag
	if j%2 == 0 {
		return joinOrder(seed, joinLag+j/2)
	}
	p := j / 2
	_, h := hash2(seed, 4, uint64(p))
	return rec{stream: 1, c: [3]int64{joinKey(seed, p), int64(h % 1000)}}
}

func joinOrder(seed uint64, i int) rec {
	h, _ := hash2(seed, 3, uint64(i))
	return rec{stream: 0, c: [3]int64{joinKey(seed, i), int64(h % 1000)}}
}

// genShared: Q(sym, price): price uniform in [0,100000), so exactly one of
// the 1,000 disjoint range CQs matches each tuple.
func genShared(seed uint64, idx int) rec {
	h1, h2 := hash2(seed, 5, uint64(idx))
	return rec{c: [3]int64{int64(h1 % windowSyms), int64(h2 % (sharedCQs * 100))}}
}

// genWindow: quotes(ts, sym, price): ts = idx+1 (unique, in order), price
// in cents so the float the engine sees is exactly cents/100.
func genWindow(seed uint64, idx int) rec {
	h1, h2 := hash2(seed, 6, uint64(idx))
	return rec{c: [3]int64{int64(idx) + 1, int64(h1 % windowSyms), int64(h2 % 100000)}}
}

// phases fixes where each phase starts in the global input sequence and the
// paced schedule. born of a warm/sat tuple is idx-notPacedOffset (negative,
// so never mistaken for a send time); born of a paced tuple is its
// scheduled send time in ns after the paced phase starts.
type phases struct {
	warmEnd, satEnd, total int
	intervalNs             int64 // paced: ns between scheduled sends
}

func planPhases(w *workloadSpec, seconds float64, traced bool) phases {
	scale := seconds / refSeconds
	if traced {
		scale /= 4 // the traced run is quarter size
	}
	sat := int(float64(w.sat) * scale)
	if sat < 10 {
		sat = 10
	}
	pacedSecs := seconds / 2
	if traced {
		pacedSecs /= 4
	}
	paced := int(w.pacedRate * pacedSecs)
	if paced < 10 {
		paced = 10
	}
	warm := w.warm
	if scale < 0.05 {
		// Smoke sizes (tests): shrink the warm phase too.
		warm = int(float64(w.warm) * scale * 4)
	}
	return phases{
		warmEnd:    warm,
		satEnd:     warm + sat,
		total:      warm + sat + paced,
		intervalNs: int64(1e9 / w.pacedRate),
	}
}

// pacedSegments is the number of whole seconds the paced schedule spans (at
// least one): latency samples are grouped by the second their tuple was due.
func (p phases) pacedSegments() int {
	secs := int(int64(p.total-p.satEnd) * p.intervalNs / 1e9)
	if secs < 1 {
		return 1
	}
	return secs
}

// born returns the born column of input idx.
func (p phases) born(idx int) int64 {
	if idx < p.satEnd {
		return int64(idx) - notPacedOffset
	}
	return int64(idx-p.satEnd) * p.intervalNs
}

// idxOfBorn inverts born; ok is false for a value no input carries.
func (p phases) idxOfBorn(b int64) (int, bool) {
	if b < 0 {
		idx := b + notPacedOffset
		return int(idx), idx >= 0 && idx < int64(p.satEnd)
	}
	if b%p.intervalNs != 0 {
		return 0, false
	}
	idx := int64(p.satEnd) + b/p.intervalNs
	return int(idx), idx < int64(p.total)
}

// input is a workload's whole pre-built input: recs for the reference
// evaluators, and the front door's own representation — FEED lines for the
// wire, boxed value slices for DB.Feed — so no timed phase pays for
// generation or formatting.
type input struct {
	w    *workloadSpec
	ph   phases
	recs []rec

	// wire: lines[off[i]:off[i+1]] is "FEED <stream> <csv>\n" of input i.
	lines []byte
	off   []int

	// embedded: vals[i*stride:(i+1)*stride] are the Feed arguments of input i.
	vals   []interface{}
	stride int
}

func buildInput(w *workloadSpec, seed uint64, ph phases) *input {
	in := &input{w: w, ph: ph, recs: make([]rec, ph.total)}
	for i := range in.recs {
		in.recs[i] = w.gen(seed, i)
	}
	if w.wire {
		in.lines = make([]byte, 0, ph.total*32)
		in.off = make([]int, ph.total+1)
		for i, r := range in.recs {
			in.off[i] = len(in.lines)
			in.lines = appendFeedLine(in.lines, w, r, ph.born(i))
		}
		in.off[ph.total] = len(in.lines)
		return in
	}
	in.stride = len(w.streams[0].kinds)
	in.vals = make([]interface{}, 0, ph.total*in.stride)
	for i, r := range in.recs {
		in.vals = appendFeedValues(in.vals, w, r, ph.born(i))
	}
	return in
}

// appendCSV renders the CSV payload of one input (no FEED prefix).
func appendCSV(dst []byte, w *workloadSpec, r rec, born int64) []byte {
	kinds := w.streams[r.stream].kinds
	for c, k := range kinds {
		if c > 0 {
			dst = append(dst, ',')
		}
		v := born
		if c < len(kinds)-1 {
			v = r.c[c]
		}
		if k == colCents {
			dst = strconv.AppendFloat(dst, float64(v)/100, 'f', -1, 64)
		} else {
			dst = strconv.AppendInt(dst, v, 10)
		}
	}
	return dst
}

func appendFeedLine(dst []byte, w *workloadSpec, r rec, born int64) []byte {
	dst = append(dst, "FEED "...)
	dst = append(dst, w.streams[r.stream].name...)
	dst = append(dst, ' ')
	dst = appendCSV(dst, w, r, born)
	return append(dst, '\n')
}

func appendFeedValues(dst []interface{}, w *workloadSpec, r rec, born int64) []interface{} {
	kinds := w.streams[r.stream].kinds
	for c, k := range kinds {
		v := born
		if c < len(kinds)-1 {
			v = r.c[c]
		}
		if k == colCents {
			dst = append(dst, float64(v)/100)
		} else {
			dst = append(dst, v)
		}
	}
	return dst
}
