// Package tuple defines the record representation flowing through
// TelegraphCQ dataflows: typed values, schemas, tuples, and the lineage
// state an Eddy attaches to each tuple to route it adaptively.
//
// Tuples are deliberately compact: a Value is a small struct rather than an
// interface so that hot routing loops do not box. Intermediate tuples formed
// by joins concatenate the values of their constituent base tuples and carry
// a SourceSet recording which base streams they span, mirroring the
// "enhanced surrogate object format" of the paper (§4.2.2).
package tuple

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the value types supported by the engine.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime // timestamp in engine time units (logical sequence or unix nanos)
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	case KindTime:
		return "TIME"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single typed column value. The zero Value is NULL.
type Value struct {
	K Kind
	I int64   // KindInt, KindBool (0/1), KindTime
	F float64 // KindFloat
	S string  // KindString
}

// Int returns an integer value.
func Int(v int64) Value { return Value{K: KindInt, I: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{K: KindFloat, F: v} }

// String_ returns a string value. (Named with a trailing underscore to avoid
// colliding with the fmt.Stringer method on Value.)
func String_(v string) Value { return Value{K: KindString, S: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{K: KindBool, I: i}
}

// Time returns a timestamp value in engine time units.
func Time(v int64) Value { return Value{K: KindTime, I: v} }

// Null is the NULL value.
var Null = Value{}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// AsInt returns the value as an int64, coercing floats and times.
//
//tcq:hotpath
func (v Value) AsInt() int64 {
	switch v.K {
	case KindInt, KindBool, KindTime:
		return v.I
	case KindFloat:
		return int64(v.F)
	default:
		return 0
	}
}

// AsFloat returns the value as a float64, coercing ints and times.
//
//tcq:hotpath
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt, KindBool, KindTime:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		return 0
	}
}

// AsBool returns the value as a boolean.
func (v Value) AsBool() bool { return v.I != 0 && v.K == KindBool }

// AsString returns the value as a string (only meaningful for KindString).
func (v Value) AsString() string { return v.S }

// Numeric reports whether the value participates in numeric comparison.
//
//tcq:hotpath
func (v Value) Numeric() bool {
	return v.K == KindInt || v.K == KindFloat || v.K == KindTime || v.K == KindBool
}

// Compare orders two values. NULLs sort first; numeric kinds compare by
// value regardless of exact kind and exactly: two integers (INT, BOOL, TIME)
// by their int64s, two floats by compareFloat, an integer and a float by
// compareIntFloat, never through a rounding float64; strings compare
// lexicographically. Comparing a string against a numeric value orders the
// numeric first. It is a total order: NaN equals NaN and sorts above every
// other number.
//
//tcq:hotpath
func Compare(a, b Value) int {
	an, bn := a.Numeric(), b.Numeric()
	switch {
	case a.K == KindNull && b.K == KindNull:
		return 0
	case a.K == KindNull:
		return -1
	case b.K == KindNull:
		return 1
	case an && bn:
		switch {
		case a.K != KindFloat && b.K != KindFloat:
			return compareInt(a.I, b.I)
		case a.K == KindFloat && b.K == KindFloat:
			return compareFloat(a.F, b.F)
		case a.K == KindFloat:
			return -compareIntFloat(b.I, a.F)
		}
		return compareIntFloat(a.I, b.F)
	case an:
		return -1
	case bn:
		return 1
	default:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	}
}

// compareFloat orders two float64s totally: by value, with NaN equal to
// NaN and above every other number (PostgreSQL's rule). NaN is tested only
// once neither operand is below the other, so ordered operands pay nothing
// for it.
func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	return compareNaN(a, b)
}

// compareIntFloat orders integer i against float f exactly: f is cut at
// its integer part, which int64 holds whenever f lies in int64's range.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f || f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	if c := compareInt(i, int64(f)); c != 0 {
		return c
	}
	return compareFloat(math.Trunc(f), f)
}

// compareInt orders two int64s.
func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// IntAsFloat returns i as a float64 and whether that float is i exactly:
// false only for an integer beyond ±2^53 that float64 rounds.
func IntAsFloat(i int64) (float64, bool) {
	f := float64(i)
	return f, f < 0x1p63 && int64(f) == i
}

// compareNaN orders a and b when at least one of them is NaN.
func compareNaN(a, b float64) int {
	an, bn := a != a, b != b
	switch {
	case an == bn:
		return 0
	case an:
		return 1
	default:
		return -1
	}
}

// Equal reports whether two values compare equal.
//
//tcq:hotpath
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Hash returns a 64-bit hash of the value, suitable for SteM hash indexes
// and Flux partitioning. Values that compare Equal hash identically.
// The FNV-1a mix is written inline (no mix closure) so the whole function
// stays closure-free on the probe hot path.
//
//tcq:hotpath
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	switch {
	case v.K == KindNull:
		h = (h ^ 0) * prime64
	case v.Numeric():
		// Hash the float64 bit pattern so Int(3) and Float(3.0) collide,
		// matching Compare/Equal semantics; an integer no float64 equals
		// hashes by its own bits.
		u := floatBits(v.F)
		if v.K != KindFloat {
			f, exact := IntAsFloat(v.I)
			if u = uint64(v.I); exact {
				u = floatBits(f)
			}
		}
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(u>>(8*i)))) * prime64
		}
	default:
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * prime64
		}
	}
	return h
}

func floatBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0 // collapse +0 and -0
	case f != f:
		return canonicalNaN // every NaN compares equal to every other
	}
	return math.Float64bits(f)
}

// canonicalNaN is the bit pattern every NaN hashes as.
const canonicalNaN = 0x7FF8000000000001

// String renders the value for display and CSV egress.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindTime:
		return "@" + strconv.FormatInt(v.I, 10)
	default:
		return "?"
	}
}
