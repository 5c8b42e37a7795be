// Package storage is the stream storage manager of §4.2.3/§4.3: arriving
// tuples are spooled to an append-only, log-structured segment store
// (sequential writes, the write pattern the paper says the file system
// should exploit), and historical windows are read back through a bounded
// buffer pool with replacement, giving broadcast-disk-style re-read
// behaviour for windowed queries over data that spans memory and disk. A
// stream that is not spooled keeps its history in a Log: the same encoding,
// held in memory.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"telegraphcq/internal/tuple"
)

// AppendRow serializes t to buf: the row codec of segments, history logs
// and pull logs. The format is self-describing: seq, ts, nvals, then
// kind+payload per value.
func AppendRow(buf []byte, t *tuple.Tuple) []byte {
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

// ReadRow decodes the row AppendRow wrote at the front of buf into t: its
// Seq and TS, and its values appended to vals, which t.Vals then is (capped
// at its own length, so appending to one row never writes the next). It
// returns vals extended and the bytes consumed. Only a string value
// allocates, and vals only when it lacks room: a caller that sizes vals for
// every row it decodes, or reuses t.Vals[:0] row after row, pays nothing
// per row.
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

// ReadStamp decodes only the Seq and TS of the row AppendRow wrote at the
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

// readTuple decodes one row from buf into a fresh tuple, returning it and
// the number of bytes consumed.
func readTuple(buf []byte) (*tuple.Tuple, int, error) {
	t := new(tuple.Tuple)
	_, n, err := ReadRow(buf, t, nil)
	if err != nil {
		return nil, 0, err
	}
	return t, n, nil
}
