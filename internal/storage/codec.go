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
	"fmt"

	"telegraphcq/internal/tuple"
)

// appendTuple serializes t to buf. The format is length-prefixed and
// self-describing: seq, ts, nvals, then kind+payload per value.
func appendTuple(buf []byte, t *tuple.Tuple) []byte {
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

// readTuple deserializes one tuple from buf, returning it and the number
// of bytes consumed.
func readTuple(buf []byte) (*tuple.Tuple, int, error) {
	off := 0
	seq, n := binary.Varint(buf[off:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("storage: corrupt seq varint")
	}
	off += n
	ts, n := binary.Varint(buf[off:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("storage: corrupt ts varint")
	}
	off += n
	nvals, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("storage: corrupt arity varint")
	}
	off += n
	t := &tuple.Tuple{Seq: seq, TS: ts, Vals: make([]tuple.Value, nvals)}
	for i := uint64(0); i < nvals; i++ {
		if off >= len(buf) {
			return nil, 0, fmt.Errorf("storage: truncated tuple")
		}
		k := tuple.Kind(buf[off])
		off++
		switch k {
		case tuple.KindNull:
			t.Vals[i] = tuple.Null
		case tuple.KindFloat:
			u, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("storage: corrupt float")
			}
			off += n
			t.Vals[i] = tuple.Float(bitsFloat(u))
		case tuple.KindString:
			l, n := binary.Uvarint(buf[off:])
			if n <= 0 || off+n+int(l) > len(buf) {
				return nil, 0, fmt.Errorf("storage: corrupt string")
			}
			off += n
			t.Vals[i] = tuple.String_(string(buf[off : off+int(l)]))
			off += int(l)
		case tuple.KindInt, tuple.KindBool, tuple.KindTime:
			v, n := binary.Varint(buf[off:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("storage: corrupt int")
			}
			off += n
			t.Vals[i] = tuple.Value{K: k, I: v}
		default:
			return nil, 0, fmt.Errorf("storage: unknown value kind %d", k)
		}
	}
	return t, off, nil
}
