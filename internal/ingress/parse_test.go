package ingress

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"telegraphcq/internal/tuple"
)

// parseCSVSplit is ParseCSV as it was written before it walked the commas
// in place: strings.Split, then one field at a time. FuzzParseCSV holds the
// split-free parser to it.
func parseCSVSplit(schema *tuple.Schema, line string) (*tuple.Tuple, error) {
	fields := strings.Split(line, ",")
	if len(fields) != schema.Arity() {
		return nil, fmt.Errorf("want %d fields, got %d", schema.Arity(), len(fields))
	}
	vals := make([]tuple.Value, len(fields))
	for i, f := range fields {
		f = strings.TrimSpace(f)
		col := schema.Columns[i]
		switch col.Kind {
		case tuple.KindInt, tuple.KindTime:
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", col.Name, err)
			}
			vals[i] = tuple.Value{K: col.Kind, I: v}
		case tuple.KindFloat:
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", col.Name, err)
			}
			vals[i] = tuple.Float(v)
		case tuple.KindBool:
			v, err := strconv.ParseBool(f)
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", col.Name, err)
			}
			vals[i] = tuple.Bool(v)
		default:
			vals[i] = tuple.String_(f)
		}
	}
	return tuple.New(vals...), nil
}

// fuzzSchema builds a schema with one column per byte of kinds, the byte
// picking the kind (NULL columns parse as strings, as in ParseCSV).
func fuzzSchema(kinds string) *tuple.Schema {
	cols := make([]tuple.Column, len(kinds))
	for i := range cols {
		cols[i] = tuple.Column{Name: fmt.Sprintf("c%d", i), Kind: tuple.Kind(kinds[i] % 6)}
	}
	return tuple.NewSchema("f", cols...)
}

// sameParse reports how got differs from the reference's (want, wantErr):
// the same values bit for bit (NaN included), or the same error text.
func sameParse(got *tuple.Tuple, err error, want *tuple.Tuple, wantErr error) string {
	if (err != nil) != (wantErr != nil) {
		return fmt.Sprintf("error %v, reference error %v", err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			return fmt.Sprintf("error %q, reference %q", err, wantErr)
		}
		return ""
	}
	if len(got.Vals) != len(want.Vals) || cap(got.Vals) != len(got.Vals) {
		return fmt.Sprintf("len/cap %d/%d, reference len %d", len(got.Vals), cap(got.Vals), len(want.Vals))
	}
	for i, v := range got.Vals {
		w := want.Vals[i]
		if v.K != w.K || v.I != w.I || v.S != w.S || math.Float64bits(v.F) != math.Float64bits(w.F) {
			return fmt.Sprintf("field %d = %#v, reference %#v", i, v, w)
		}
	}
	return ""
}

// FuzzParseCSV: ParseCSV and Slab.ParseCSV yield what the strings.Split
// parser they replaced yields — the same values, or the same error text —
// for any line under any schema. A slab's earlier tuples survive later
// parses, and a tuple parsed from a view of a buffer survives the buffer's
// reuse: no value aliases the line.
func FuzzParseCSV(f *testing.F) {
	const (
		i, fl, s, b, tm, null = "\x01", "\x02", "\x03", "\x04", "\x05", "\x00"
	)
	for _, seed := range []struct{ kinds, line string }{
		{i + s + fl, "5, MSFT, 57.25"},
		{i + s + fl, "1,MSFT"},       // too few fields
		{i + s, "1,MSFT,2"},          // too many
		{i + s + fl, "x,MSFT,1.0"},   // bad int
		{i + s + fl, "1,MSFT,abc"},   // bad float
		{s, ""},                      // one empty field
		{i, ""},                      // an empty int
		{s + s, ","},                 // two empty fields
		{i + i + s, "1,2,"},          // trailing comma
		{i + i, "1,2,"},              // trailing comma, one too many
		{b + b + b, " true ,\tF, 1"}, // whitespace, bool spellings
		{tm + i, "-9223372036854775808,9223372036854775807"},
		{i, "9223372036854775808"},       // out of range
		{fl + fl + fl, "NaN,-Inf,1e400"}, // out of range float
		{null + s, " a b , c "},
		{"", ""},
		{s, "a\x00,b"},
	} {
		f.Add(seed.kinds, seed.line)
	}
	f.Fuzz(func(t *testing.T, kinds, line string) {
		if len(kinds) > 32 {
			kinds = kinds[:32]
		}
		schema := fuzzSchema(kinds)
		want, wantErr := parseCSVSplit(schema, line)
		got, err := ParseCSV(schema, line)
		if d := sameParse(got, err, want, wantErr); d != "" {
			t.Fatalf("ParseCSV(%q, %q): %s", kinds, line, d)
		}
		var slab Slab
		first, err := slab.ParseCSV(schema, line)
		if d := sameParse(first, err, want, wantErr); d != "" {
			t.Fatalf("Slab.ParseCSV(%q, %q): %s", kinds, line, d)
		}
		second, err := slab.ParseCSV(schema, line)
		if d := sameParse(second, err, want, wantErr); d != "" {
			t.Fatalf("second Slab.ParseCSV(%q, %q): %s", kinds, line, d)
		}
		if err == nil {
			if first == second {
				t.Fatal("the slab handed out one tuple twice")
			}
			if d := sameParse(first, nil, want, nil); d != "" {
				t.Fatalf("first slab tuple after the second parse: %s", d)
			}
		}
		buf := []byte(line)
		viewed, err := slab.ParseCSV(schema, unsafe.String(unsafe.SliceData(buf), len(buf)))
		for i := range buf {
			buf[i] = ^buf[i] // the caller reuses its buffer
		}
		if d := sameParse(viewed, err, want, wantErr); d != "" {
			t.Fatalf("Slab.ParseCSV(%q, %q) of a view, after the buffer changed: %s", kinds, line, d)
		}
	})
}
