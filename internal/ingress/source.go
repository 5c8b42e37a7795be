// Package ingress implements the Wrapper side of TelegraphCQ (§4.2.3): the
// operators that move external data into the engine. Wrappers run apart
// from query processing (here: their own goroutines) so no ingress
// operation can block the executor. Two source modalities are supported,
// as in the paper: pull sources, which the wrapper drives (with simulated
// network latency), and push sources, where data arrives on its own —
// either over a local channel (push-client) or a TCP port served by the
// wrapper (push-server). A streamer stamps arrival sequence numbers,
// optionally spools tuples to the storage manager, and hands them to the
// executor over a Fjords connection.
package ingress

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/tuple"
)

// Source produces tuples from somewhere outside the engine.
type Source interface {
	// Next returns the next tuple, blocking as the medium requires.
	// io.EOF signals a cleanly exhausted source.
	Next() (*tuple.Tuple, error)
	// Close releases the source.
	Close() error
}

// FuncSource adapts a generator function (e.g. a workload generator) into
// a pull source with optional simulated per-fetch latency — the remote
// web-source model used by the hybrid-join experiment (E3).
type FuncSource struct {
	fn      func() (*tuple.Tuple, error)
	latency time.Duration
	clk     chaos.Clock
	site    *chaos.Site // nil without injection
	burst   int         // latency-free fetches left in an injected burst
	closed  atomic.Bool
}

// NewFuncSource wraps fn; latency is added to every Next call on the real
// clock. Use NewFuncSourceClock to simulate the latency on a virtual clock.
func NewFuncSource(fn func() (*tuple.Tuple, error), latency time.Duration) *FuncSource {
	return NewFuncSourceClock(fn, latency, nil)
}

// NewFuncSourceClock is NewFuncSource with an injectable clock (nil
// defaults to the real clock), so simulated fetch latency can run on
// virtual time in deterministic tests.
func NewFuncSourceClock(fn func() (*tuple.Tuple, error), latency time.Duration, clk chaos.Clock) *FuncSource {
	if clk == nil {
		clk = chaos.Real()
	}
	return &FuncSource{fn: fn, latency: latency, clk: clk}
}

// NewFuncSourceChaos is NewFuncSourceClock with a fault-decision site: a
// Burst decision suspends the simulated fetch latency for a seeded number
// of fetches, modelling a source that delivers an arrival burst at full
// rate — the overload case downstream queues must shed against (§4.3).
func NewFuncSourceChaos(fn func() (*tuple.Tuple, error), latency time.Duration, clk chaos.Clock, site *chaos.Site) *FuncSource {
	s := NewFuncSourceClock(fn, latency, clk)
	s.site = site
	return s
}

// Next implements Source. It is called from a single streamer goroutine,
// so the burst countdown needs no locking.
func (s *FuncSource) Next() (*tuple.Tuple, error) {
	if s.closed.Load() {
		return nil, io.EOF
	}
	if s.site != nil && s.burst == 0 && s.site.Next() == chaos.Burst {
		s.burst = s.site.BurstSize()
	}
	if s.burst > 0 {
		s.burst--
	} else if s.latency > 0 {
		s.clk.Sleep(s.latency)
	}
	return s.fn()
}

// Close implements Source.
func (s *FuncSource) Close() error {
	s.closed.Store(true)
	return nil
}

// SliceSource replays a fixed tuple slice (tables, tests, recorded traces).
type SliceSource struct {
	tuples []*tuple.Tuple
	i      int
}

// NewSliceSource wraps the given tuples.
func NewSliceSource(tuples []*tuple.Tuple) *SliceSource {
	return &SliceSource{tuples: tuples}
}

// Next implements Source.
func (s *SliceSource) Next() (*tuple.Tuple, error) {
	if s.i >= len(s.tuples) {
		return nil, io.EOF
	}
	t := s.tuples[s.i]
	s.i++
	return t, nil
}

// Close implements Source.
func (s *SliceSource) Close() error { return nil }

// CSVSource parses comma-separated lines from r into tuples matching
// schema. It is the local file reader wrapper of Fig. 1; blank lines and
// lines starting with '#' are skipped.
type CSVSource struct {
	schema *tuple.Schema
	sc     *bufio.Scanner
	closer io.Closer
	line   int
}

// NewCSVSource reads schema-shaped CSV from r.
func NewCSVSource(schema *tuple.Schema, r io.Reader) *CSVSource {
	cs := &CSVSource{schema: schema, sc: bufio.NewScanner(r)}
	if c, ok := r.(io.Closer); ok {
		cs.closer = c
	}
	return cs
}

// Next implements Source.
func (s *CSVSource) Next() (*tuple.Tuple, error) {
	for s.sc.Scan() {
		s.line++
		line := strings.TrimSpace(s.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := ParseCSV(s.schema, line)
		if err != nil {
			return nil, fmt.Errorf("ingress: line %d: %w", s.line, err)
		}
		return t, nil
	}
	if err := s.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// Close implements Source.
func (s *CSVSource) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// ParseCSV converts one comma-separated line into a tuple under schema.
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
// unreachable.
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
// column of schema, walking the commas in place: no slice of fields, and a
// string column keeps a substring of line.
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
			vals[i] = tuple.String_(f)
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

// OpenCSVFile opens a CSV file as a pull source — the "local file reader"
// wrapper of Fig. 1. The file is closed by Close (or at EOF via the
// streamer's Close call).
func OpenCSVFile(schema *tuple.Schema, path string) (*CSVSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ingress: %w", err)
	}
	return NewCSVSource(schema, f), nil
}
