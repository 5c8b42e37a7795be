package ingress

import (
	"io"
	"math"
	"strings"
	"testing"

	"telegraphcq/internal/tuple"
	"telegraphcq/internal/workload"
)

func TestParseCSV(t *testing.T) {
	s := workload.StockSchema()
	tp, err := ParseCSV(s, "5, MSFT, 57.25")
	if err != nil {
		t.Fatal(err)
	}
	if tp.Vals[0].AsInt() != 5 || tp.Vals[1].AsString() != "MSFT" || tp.Vals[2].AsFloat() != 57.25 {
		t.Errorf("parsed = %v", tp)
	}
}

func TestParseCSVErrors(t *testing.T) {
	s := workload.StockSchema()
	if _, err := ParseCSV(s, "1,MSFT"); err == nil {
		t.Error("missing field accepted")
	}
	if _, err := ParseCSV(s, "x,MSFT,1.0"); err == nil {
		t.Error("bad int accepted")
	}
	if _, err := ParseCSV(s, "1,MSFT,abc"); err == nil {
		t.Error("bad float accepted")
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	s := workload.StockSchema()
	in, _ := ParseCSV(s, "9,IBM,88.5")
	line := FormatCSV(in)
	out, err := ParseCSV(s, line)
	if err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	for i := range in.Vals {
		if !tuple.Equal(in.Vals[i], out.Vals[i]) {
			t.Errorf("val %d: %v != %v", i, in.Vals[i], out.Vals[i])
		}
	}
}

// TestAppendCSVMatchesValueString: AppendCSV writes, for every kind, the
// bytes the string-per-field formatter it replaced produced (Value.String,
// and a time without its '@'), appends after what dst already holds, and
// allocates nothing when dst has the room.
func TestAppendCSVMatchesValueString(t *testing.T) {
	row := tuple.New(
		tuple.Value{}, tuple.Int(0), tuple.Int(-1<<63), tuple.Float(88.5), tuple.Float(1e21),
		tuple.Float(-0.000001), tuple.Float(math.Inf(-1)), tuple.Float(math.NaN()), tuple.Float(3),
		tuple.String_(""), tuple.String_("a b;c"), tuple.Bool(true), tuple.Bool(false),
		tuple.Time(-7), tuple.Time(1<<62), tuple.Value{K: tuple.Kind(99), I: 5})
	parts := make([]string, len(row.Vals))
	for i, v := range row.Vals {
		if parts[i] = v.String(); v.K == tuple.KindTime {
			parts[i] = strings.TrimPrefix(parts[i], "@")
		}
	}
	want := strings.Join(parts, ",")
	if got := FormatCSV(row); got != want {
		t.Errorf("FormatCSV = %q, want %q", got, want)
	}
	if got := string(AppendCSV([]byte("ROW q7 "), row)); got != "ROW q7 "+want {
		t.Errorf("AppendCSV after a prefix = %q", got)
	}
	if got := string(AppendCSV(nil, tuple.New())); got != "" {
		t.Errorf("an empty tuple renders as %q", got)
	}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { buf = AppendCSV(buf[:0], row) }); n != 0 {
		t.Errorf("AppendCSV into a buffer with room allocates %v times", n)
	}
}

func TestSensorProxyControlLoop(t *testing.T) {
	gen := workload.NewSensorGenerator(1, 2, 1)
	p := NewSensorProxy(gen, 1)
	if p.Rate() != 1 {
		t.Fatalf("baseline = %d", p.Rate())
	}
	p.Demand(1, 4)
	p.Demand(2, 8)
	if p.Rate() != 8 {
		t.Errorf("rate = %d, want 8", p.Rate())
	}
	p.Release(2)
	if p.Rate() != 4 {
		t.Errorf("rate = %d, want 4", p.Rate())
	}
	p.Release(1)
	if p.Rate() != 1 {
		t.Errorf("rate = %d, want baseline 1", p.Rate())
	}
	if p.Adjustments() != 4 {
		t.Errorf("adjustments = %d", p.Adjustments())
	}
	// Readings flow at the tuned rate.
	tp, err := p.Next()
	if err != nil || len(tp.Vals) != 4 {
		t.Errorf("reading = %v, %v", tp, err)
	}
	p.Close()
	if _, err := p.Next(); err != io.EOF {
		t.Errorf("after close: %v", err)
	}
}
