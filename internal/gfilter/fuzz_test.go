package gfilter

import (
	"fmt"
	"math"
	"testing"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
)

var fuzzOps = [...]expr.Op{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}

// fuzzValue maps a byte onto a value: its low three bits pick the kind
// (NULL, INT, FLOAT in half steps, TIME, STRING, NaN or -0, ±Inf, BOOL),
// its high five bits the value, so neighbouring constants collide across
// kinds.
func fuzzValue(b byte) tuple.Value {
	x := int64(b>>3) - 16
	switch b & 7 {
	case 0:
		return tuple.Null
	case 1:
		return tuple.Int(x)
	case 2:
		return tuple.Float(float64(x) / 2)
	case 3:
		return tuple.Time(x)
	case 4:
		return tuple.String_([]string{"", "a", "ab", "b"}[x&3])
	case 5:
		if x&1 == 0 {
			return tuple.Float(math.NaN())
		}
		return tuple.Float(math.Copysign(0, -1))
	case 6:
		return tuple.Float(math.Inf(int(x|1) % 2))
	default:
		return tuple.Bool(x&1 == 1)
	}
}

// FuzzGroupedFilter checks the grouped filter against per-factor Eval on
// random factor lists. data[0] is the factor count; each factor is three
// bytes: query (low seven bits; with the high bit set the id is spread
// ×577, so the lineage is wide and the union budget spaces the boundaries
// out), op (a byte from 252 on removes the query instead) and constant
// (fuzzValue). The remaining bytes are extra probe values; every constant
// and NULL, NaN, ±Inf and strings are probed too.
func FuzzGroupedFilter(f *testing.F) {
	f.Add([]byte{2, 0, 5, 9, 0, 2, 17, 41})
	f.Add([]byte{4, 1, 4, 2, 1, 3, 2, 0x81, 0, 5, 0x81, 1, 5, 10, 13, 20})
	f.Add([]byte{3, 0, 0, 4, 1, 1, 4, 0, 252, 0, 12, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nf := min(int(data[0]), (len(data)-1)/3)
		g := New(0, tuple.SingleSource(0))
		preds := map[int][]expr.Predicate{}
		probes := []tuple.Value{tuple.Null, tuple.Float(math.NaN()), tuple.Float(math.Inf(1)),
			tuple.Float(math.Inf(-1)), tuple.String_(""), tuple.String_("ab")}
		for i := 0; i < nf; i++ {
			qb, ob, cb := data[1+3*i], data[2+3*i], data[3+3*i]
			q := int(qb & 0x7F)
			if qb&0x80 != 0 {
				q *= 577
			}
			if ob >= 252 {
				g.Remove(q)
				delete(preds, q)
				continue
			}
			p := expr.Predicate{Col: 0, Op: fuzzOps[ob%6], Val: fuzzValue(cb)}
			g.Add(q, p)
			preds[q] = append(preds[q], p)
			probes = append(probes, p.Val)
		}
		for _, b := range data[1+3*nf:] {
			probes = append(probes, fuzzValue(b))
		}
		for i, v := range probes {
			checkProbe(t, g, preds, v, fmt.Sprintf("probe %d", i))
		}
	})
}
