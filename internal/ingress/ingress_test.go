package ingress

import (
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/storage"
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

func TestCSVSource(t *testing.T) {
	s := workload.StockSchema()
	input := "# header comment\n1,MSFT,50\n\n2,IBM,60\n"
	src := NewCSVSource(s, strings.NewReader(input))
	var got []*tuple.Tuple
	for {
		tp, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tp)
	}
	if len(got) != 2 {
		t.Fatalf("tuples = %d", len(got))
	}
}

func TestCSVSourceBadLine(t *testing.T) {
	src := NewCSVSource(workload.StockSchema(), strings.NewReader("bad line\n"))
	if _, err := src.Next(); err == nil {
		t.Error("bad line accepted")
	}
}

func TestSliceSource(t *testing.T) {
	src := NewSliceSource([]*tuple.Tuple{tuple.New(tuple.Int(1))})
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestStreamerStampsAndDelivers(t *testing.T) {
	s := workload.StockSchema()
	src := NewCSVSource(s, strings.NewReader("7,MSFT,50\n9,IBM,60\n"))
	out := fjord.NewConn(fjord.Pull, 8)
	st := NewStreamer(src, out, 0, nil) // timeCol 0
	st.Start()
	var got []*tuple.Tuple
	for {
		tp, ok := out.Recv()
		if !ok {
			break
		}
		got = append(got, tp)
	}
	if err := st.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("delivered = %d", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Errorf("seqs = %d, %d", got[0].Seq, got[1].Seq)
	}
	if got[0].TS != 7 || got[1].TS != 9 {
		t.Errorf("ts = %d, %d", got[0].TS, got[1].TS)
	}
	if st.Delivered() != 2 {
		t.Errorf("Delivered = %d", st.Delivered())
	}
}

func TestStreamerSpools(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.NewSegmentStore(dir, "s", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewStockGenerator(1, nil)
	i := 0
	src := NewFuncSource(func() (*tuple.Tuple, error) {
		if i >= 10 {
			return nil, io.EOF
		}
		i++
		return gen.Next(), nil
	}, 0)
	out := fjord.NewConn(fjord.Pull, 32)
	st := NewStreamer(src, out, 0, store)
	st.Start()
	for {
		if _, ok := out.Recv(); !ok {
			break
		}
	}
	st.Wait()
	store.Flush()
	spooled, err := store.ScanRange(-1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(spooled) != 10 {
		t.Errorf("spooled = %d", len(spooled))
	}
}

func TestPushServer(t *testing.T) {
	s := workload.StockSchema()
	ps, err := NewPushServer(s, "127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ps.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "1,MSFT,50\n2,IBM,60\n")
	conn.Close()

	got := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got < 2 {
			if _, err := ps.Next(); err != nil {
				return
			}
			got++
		}
	}()
	select {
	case <-done:
	case <-chaos.Real().After(5 * time.Second):
		t.Fatal("timed out waiting for pushed tuples")
	}
	if ps.Connections() != 1 {
		t.Errorf("connections = %d", ps.Connections())
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Next(); err != io.EOF {
		t.Errorf("after close err = %v", err)
	}
	if err := ps.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestPushServerBadLineReportsError(t *testing.T) {
	ps, err := NewPushServer(workload.StockSchema(), "127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	conn, err := net.Dial("tcp", ps.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "not,valid\n")
	buf := make([]byte, 64)
	conn.SetReadDeadline(chaos.Real().Now().Add(5 * time.Second))
	n, err := conn.Read(buf)
	if err != nil || !strings.HasPrefix(string(buf[:n]), "ERR") {
		t.Errorf("expected ERR reply, got %q (%v)", buf[:n], err)
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

func TestFuncSourceLatency(t *testing.T) {
	// The simulated fetch latency runs on a virtual clock, so the test
	// asserts the exact delay without spending wall time on it.
	clk := chaos.NewVirtual(time.Unix(0, 0))
	clk.SetAutoAdvance(true)
	src := NewFuncSourceClock(func() (*tuple.Tuple, error) {
		return tuple.New(tuple.Int(1)), nil
	}, 2*time.Millisecond, clk)
	start := clk.Now()
	src.Next()
	if got := clk.Since(start); got != 2*time.Millisecond {
		t.Errorf("virtual latency = %v, want 2ms", got)
	}
	src.Close()
	if _, err := src.Next(); err != io.EOF {
		t.Errorf("after close: %v", err)
	}
}

func TestOpenCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/stocks.csv"
	if err := os.WriteFile(path, []byte("1,MSFT,50\n2,IBM,60\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenCSVFile(workload.StockSchema(), path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Errorf("rows = %d", n)
	}
	if err := src.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if _, err := OpenCSVFile(workload.StockSchema(), dir+"/missing.csv"); err == nil {
		t.Error("missing file accepted")
	}
}
