// Package ingress holds the edge of TelegraphCQ's front door (§4.2.3):
// the CSV codec a wire FEED line or DB.FeedCSV is parsed with, and a
// results row is rendered with, and the sensor proxy of §2.1. Every row
// enters the engine one way, through Engine.FeedMany, which stamps,
// records and fans it out; the paper's wrapper process is the server's
// per-connection goroutine, so no ingress work runs on the executor.
package ingress

import (
	"fmt"
	"strconv"
	"strings"

	"telegraphcq/internal/tuple"
)

// ParseCSV converts one comma-separated line into a tuple under schema.
// The tuple keeps no part of line.
func ParseCSV(schema *tuple.Schema, line string) (*tuple.Tuple, error) {
	vals := make([]tuple.Value, schema.Arity())
	if err := parseFields(schema, line, vals); err != nil {
		return nil, err
	}
	return tuple.New(vals...), nil
}

// slabTuples is how many tuples a Slab carves from one block.
const slabTuples = 64

// Slab parses CSV lines into tuples carved from shared blocks — one of
// slabTuples tuples, one of their values — so a run of lines costs two
// allocations per slabTuples lines rather than two per line, and none once
// Reset rewinds the blocks for the next run. Its tuples are the slab's:
// they stay valid until the next Reset, which the caller makes once no one
// holds any of them (the engine keeps no fed tuple, so once FeedMany
// returns). None may be handed to a tuple.Pool: the slab reuses its blocks
// in place, and a block is freed only once every tuple carved from it is
// unreachable. The line parsed may alias memory the caller reuses once
// ParseCSV returns (a connection's read buffer): no value keeps it.
type Slab struct {
	tuples []tuple.Tuple
	vals   []tuple.Value
	nt, nv int // tuples and values carved from the current blocks
}

// ParseCSV is the package-level ParseCSV, drawing the tuple and its values
// from the slab's blocks. A line that fails to parse takes no room.
func (s *Slab) ParseCSV(schema *tuple.Schema, line string) (*tuple.Tuple, error) {
	n := schema.Arity()
	if len(s.vals)-s.nv < n {
		s.vals, s.nv = make([]tuple.Value, slabTuples*n), 0
	}
	vals := s.vals[s.nv : s.nv+n : s.nv+n] // capped: an append to one tuple's Vals never reaches the next
	if err := parseFields(schema, line, vals); err != nil {
		return nil, err
	}
	if s.nt == len(s.tuples) {
		s.tuples, s.nt = make([]tuple.Tuple, slabTuples), 0
	}
	t := &s.tuples[s.nt]
	*t = tuple.Tuple{Vals: vals}
	s.nt, s.nv = s.nt+1, s.nv+n
	return t, nil
}

// Reset rewinds the slab to the start of its current blocks: the next
// lines overwrite the tuples carved before it, which must all be dead.
func (s *Slab) Reset() { s.nt, s.nv = 0, 0 }

// parseFields parses line's comma-separated fields into vals, one per
// column of schema, walking the commas in place: no slice of fields. A
// string column gets a copy of its field, so no value keeps line, which
// may alias memory the caller reuses.
func parseFields(schema *tuple.Schema, line string, vals []tuple.Value) error {
	if got := strings.Count(line, ",") + 1; got != len(vals) {
		return fmt.Errorf("want %d fields, got %d", len(vals), got)
	}
	for i := range vals {
		f := line // the last field runs to the end
		if j := strings.IndexByte(line, ','); j >= 0 {
			f, line = line[:j], line[j+1:]
		}
		f = strings.TrimSpace(f)
		col := schema.Columns[i]
		switch col.Kind {
		case tuple.KindInt, tuple.KindTime:
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return fmt.Errorf("field %s: %w", col.Name, err)
			}
			vals[i] = tuple.Value{K: col.Kind, I: v}
		case tuple.KindFloat:
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return fmt.Errorf("field %s: %w", col.Name, err)
			}
			vals[i] = tuple.Float(v)
		case tuple.KindBool:
			v, err := strconv.ParseBool(f)
			if err != nil {
				return fmt.Errorf("field %s: %w", col.Name, err)
			}
			vals[i] = tuple.Bool(v)
		default:
			vals[i] = tuple.String_(strings.Clone(f))
		}
	}
	return nil
}

// FormatCSV renders a tuple as a comma-separated line (inverse of
// ParseCSV; used by egress and the TCP wire protocol).
func FormatCSV(t *tuple.Tuple) string { return string(AppendCSV(nil, t)) }

// AppendCSV appends FormatCSV's rendering of t to dst without building a
// string per field: what a writer of many rows into one buffer wants. Every
// kind prints as Value.String does, except a time, which goes without the
// '@' so that ParseCSV reads it back.
func AppendCSV(dst []byte, t *tuple.Tuple) []byte {
	for i, v := range t.Vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch v.K {
		case tuple.KindNull:
			dst = append(dst, "NULL"...)
		case tuple.KindInt, tuple.KindTime:
			dst = strconv.AppendInt(dst, v.I, 10)
		case tuple.KindFloat:
			dst = strconv.AppendFloat(dst, v.F, 'g', -1, 64)
		case tuple.KindString:
			dst = append(dst, v.S...)
		case tuple.KindBool:
			dst = strconv.AppendBool(dst, v.I != 0)
		default:
			dst = append(dst, '?')
		}
	}
	return dst
}
