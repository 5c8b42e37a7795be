// Package storage is the stream storage manager of §4.2.3/§4.3: arriving
// tuples are spooled to an append-only, log-structured segment store
// (sequential writes, the write pattern the paper says the file system
// should exploit), and historical windows are read back through a bounded
// buffer pool with replacement, giving broadcast-disk-style re-read
// behaviour for windowed queries over data that spans memory and disk. Its
// Log is the engine's one in-memory row container, in the segments' row
// codec: an unspooled stream's history, the open head segment, a SteM's
// join state (internal/arrange) and a query's pull results
// (internal/egress).
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"telegraphcq/internal/tuple"
)

// appendRow serializes t to buf: the row codec of segments, history logs
// and pull logs. The format is self-describing: seq, ts, nvals, then
// kind+payload per value.
func appendRow(buf []byte, t *tuple.Tuple) []byte {
	buf = binary.AppendVarint(buf, t.Seq)
	buf = binary.AppendVarint(buf, t.TS)
	buf = binary.AppendUvarint(buf, uint64(len(t.Vals)))
	for _, v := range t.Vals {
		buf = append(buf, byte(v.K))
		switch v.K {
		case tuple.KindNull:
		case tuple.KindFloat:
			buf = binary.AppendUvarint(buf, floatBits(v.F))
		case tuple.KindString:
			buf = binary.AppendUvarint(buf, uint64(len(v.S)))
			buf = append(buf, v.S...)
		default: // int, bool, time
			buf = binary.AppendVarint(buf, v.I)
		}
	}
	return buf
}

// ReadRow decodes the row appendRow wrote at the front of buf into t: its
// Seq and TS, and its values appended to vals, which t.Vals then is (capped
// at its own length, so appending to one row never writes the next). It
// returns vals extended and the bytes consumed. Only a string value
// allocates, and vals only when it lacks room.
func ReadRow(buf []byte, t *tuple.Tuple, vals []tuple.Value) ([]tuple.Value, int, error) {
	off := 0
	seq, n := binary.Varint(buf[off:])
	if n <= 0 {
		return vals, 0, corrupt("corrupt seq varint")
	}
	off += n
	ts, n := binary.Varint(buf[off:])
	if n <= 0 {
		return vals, 0, corrupt("corrupt ts varint")
	}
	off += n
	nvals, n := binary.Uvarint(buf[off:])
	if n <= 0 || nvals > uint64(len(buf)) { // every value takes a byte at least
		return vals, 0, corrupt("corrupt arity varint")
	}
	off += n
	start := len(vals)
	//lint:ignore alloccheck grows vals only when it lacks room: a caller decoding row after row into one slice of the width pays nothing per row
	vals = slices.Grow(vals, int(nvals))
	for i := uint64(0); i < nvals; i++ {
		if off >= len(buf) {
			return vals[:start], 0, corrupt("truncated tuple")
		}
		k := tuple.Kind(buf[off])
		off++
		switch k {
		case tuple.KindNull:
			vals = append(vals, tuple.Null)
		case tuple.KindFloat:
			u, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return vals[:start], 0, corrupt("corrupt float")
			}
			off += n
			vals = append(vals, tuple.Float(bitsFloat(u)))
		case tuple.KindString:
			l, n := binary.Uvarint(buf[off:])
			if n <= 0 || l > uint64(len(buf)-off-n) {
				return vals[:start], 0, corrupt("corrupt string")
			}
			off += n
			//lint:ignore alloccheck a string value is copied out of the encoded row: decoding one allocates (DESIGN.md §5); no join keys on strings yet
			vals = append(vals, tuple.String_(string(buf[off:off+int(l)])))
			off += int(l)
		case tuple.KindInt, tuple.KindBool, tuple.KindTime:
			v, n := binary.Varint(buf[off:])
			if n <= 0 {
				return vals[:start], 0, corrupt("corrupt int")
			}
			off += n
			vals = append(vals, tuple.Value{K: k, I: v})
		default:
			return vals[:start], 0, unknownKind(k)
		}
	}
	t.Seq, t.TS = seq, ts
	t.Vals = vals[start:len(vals):len(vals)]
	return vals, off, nil
}

// corrupt is ReadRow's error for a row it cannot decode.
//
//tcq:coldpath
func corrupt(what string) error { return errors.New("storage: " + what) }

//tcq:coldpath
func unknownKind(k tuple.Kind) error { return fmt.Errorf("storage: unknown value kind %d", k) }

// ReadStamp decodes only the Seq and TS of the row appendRow wrote at the
// front of buf, leaving its values undecoded: what ordering rows by time
// needs. It returns zeros for a corrupt stamp.
func ReadStamp(buf []byte) (seq, ts int64) {
	seq, n := binary.Varint(buf)
	if n <= 0 {
		return 0, 0
	}
	ts, _ = binary.Varint(buf[n:])
	return seq, ts
}

// rowSize steps over the row at the front of buf without decoding it: the
// bytes it takes and the values it holds, or 0, 0 when it does not decode.
func rowSize(buf []byte) (n, vals int) {
	var arity uint64
	for i := -3; i < int(arity); i++ { // seq, ts and the arity, then each value
		kind := tuple.KindInt
		if i >= 0 {
			if n >= len(buf) {
				return 0, 0
			}
			kind, n = tuple.Kind(buf[n]), n+1
		}
		if kind == tuple.KindNull {
			continue
		}
		u, k := binary.Uvarint(buf[n:])
		if n += k; k <= 0 || kind > tuple.KindTime {
			return 0, 0
		}
		switch {
		case kind == tuple.KindString && u <= uint64(len(buf)-n):
			n += int(u)
		case kind == tuple.KindString || i == -1 && u > uint64(len(buf)):
			return 0, 0
		case i == -1:
			arity = u
		}
	}
	return n, int(arity)
}
