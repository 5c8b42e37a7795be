package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/core"
	"telegraphcq/internal/tuple"
)

// countingConn counts the writes that reach a connection: on a socket, one
// syscall each.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// pipeFrontEnd serves one FrontEnd over an in-memory pipe. It returns the
// client end, a reader over it, and the server end's write counter.
func pipeFrontEnd(t testing.TB, e *core.Engine) (net.Conn, *bufio.Reader, *countingConn) {
	t.Helper()
	srv, cli := net.Pipe()
	cc := &countingConn{Conn: srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		newFrontEnd(e, cc).serve()
	}()
	t.Cleanup(func() {
		cli.Close()
		<-done
	})
	return cli, bufio.NewReader(cli), cc
}

// pipeline writes payload in one client write from its own goroutine (a
// pipe write blocks until the server has read it all, and the server
// answers as it reads) and waits for it at cleanup.
func pipeline(t *testing.T, conn net.Conn, payload string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		io.WriteString(conn, payload) // a failure shows up as a short read
	}()
	t.Cleanup(func() { <-done })
}

// wireEngine is an engine with one integer stream s and a standing
// selection over it.
func wireEngine(t *testing.T) (*core.Engine, *core.RunningQuery) {
	t.Helper()
	e := core.NewEngine(core.Options{EOs: 1})
	t.Cleanup(e.Stop)
	if err := e.CreateStream("s", tuple.NewSchema("s", tuple.Column{Name: "x", Kind: tuple.KindInt}), -1); err != nil {
		t.Fatal(err)
	}
	q, err := e.Register("SELECT x FROM s WHERE x >= 0")
	if err != nil {
		t.Fatal(err)
	}
	return e, q
}

// readReplies reads n lines, returning them and their byte count.
func readReplies(t *testing.T, r *bufio.Reader, n int) ([]string, int) {
	t.Helper()
	lines, bytes := make([]string, 0, n), 0
	for len(lines) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d of %d lines: %v", len(lines), n, err)
		}
		bytes += len(line)
		lines = append(lines, strings.TrimSuffix(line, "\n"))
	}
	return lines, bytes
}

// maxWrites is the write budget of a reply of the given size: one per full
// write buffer, plus the flush of the rest.
func maxWrites(bytes int) int64 { return int64((bytes+ioBuf-1)/ioBuf + 1) }

// TestPipelinedFeedsFlushPerRead: FEEDs pipelined in one client write are
// answered in command order at one write per read buffer of input, not one
// per "OK fed" (the parent wrote each reply with its own flush).
func TestPipelinedFeedsFlushPerRead(t *testing.T) {
	e, _ := wireEngine(t)
	cli, r, cc := pipeFrontEnd(t, e)
	const n = 10000 // ~117 KB: two reads of the 64 KiB buffer
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "FEED s %d\n", i)
	}
	pipeline(t, cli, b.String())
	lines, bytes := readReplies(t, r, n)
	for i, l := range lines {
		if l != "OK fed" {
			t.Fatalf("reply %d = %q", i, l)
		}
	}
	if w := cc.writes.Load(); w > maxWrites(bytes) {
		t.Errorf("%d FEED replies (%d bytes) took %d conn writes, want <= %d", n, bytes, w, maxWrites(bytes))
	}
}

// TestFetchWritesPerBuffer: a FETCH of R rows is rendered into the write
// buffer and written a full buffer at a time (the parent flushed per row:
// R+1 writes).
func TestFetchWritesPerBuffer(t *testing.T) {
	e, q := wireEngine(t)
	const rows = 20000
	for i := 0; i < rows; i++ {
		if err := e.Feed("s", tuple.New(tuple.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if !chaos.Poll(nil, 10*time.Second, time.Millisecond, func() bool { return q.Results() == rows }) {
		t.Fatalf("%d of %d results", q.Results(), rows)
	}
	cli, r, cc := pipeFrontEnd(t, e)
	pipeline(t, cli, fmt.Sprintf("FETCH %d\n", q.ID))
	lines, bytes := readReplies(t, r, rows+1)
	for i, l := range lines[:rows] {
		if want := fmt.Sprintf("ROW . %d", i); l != want {
			t.Fatalf("row %d = %q, want %q", i, l, want)
		}
	}
	if lines[rows] != "END" {
		t.Fatalf("last line = %q, want END", lines[rows])
	}
	if w := cc.writes.Load(); w > maxWrites(bytes) {
		t.Errorf("FETCH of %d rows (%d bytes) took %d conn writes, want <= %d", rows, bytes, w, maxWrites(bytes))
	}
}

// TestPipelinedRepliesInCommandOrder: FEEDs, a FETCH, a STATS and a PING in
// one write come back as N "OK fed", the FETCH's ROW lines and END, the
// STATS rows and END, then "OK pong" — each reply whole and in order.
func TestPipelinedRepliesInCommandOrder(t *testing.T) {
	e, q := wireEngine(t)
	cli, r, _ := pipeFrontEnd(t, e)
	const n = 500
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "FEED s %d\n", i)
	}
	fmt.Fprintf(&b, "FETCH %d\nSTATS %d\nPING\n", q.ID, q.ID)
	pipeline(t, cli, b.String())

	next := func() string {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSuffix(line, "\n")
	}
	for i := 0; i < n; i++ {
		if l := next(); l != "OK fed" {
			t.Fatalf("reply %d = %q, want OK fed", i, l)
		}
	}
	l := next()
	for ; l != "END"; l = next() {
		if !strings.HasPrefix(l, "ROW . ") || strings.HasPrefix(l, "ROW . results=") {
			t.Fatalf("FETCH reply line %q", l)
		}
	}
	if l = next(); !strings.HasPrefix(l, "ROW . results=") {
		t.Fatalf("STATS reply starts %q", l)
	}
	for l != "END" {
		if l = next(); !strings.HasPrefix(l, "ROW . ") && l != "END" {
			t.Fatalf("STATS reply line %q", l)
		}
	}
	if l = next(); l != "OK pong" {
		t.Fatalf("PING reply %q", l)
	}
}

// TestOverlongLineIsRefused: a line past the read buffer but under 1 MiB is
// served; one over 1 MiB gets "ERR line exceeds 1 MiB" and then EOF (the
// Scanner the reader replaced dropped the connection without a word).
func TestOverlongLineIsRefused(t *testing.T) {
	e, _ := wireEngine(t)
	cli, r, _ := pipeFrontEnd(t, e)
	pipeline(t, cli, "PING"+strings.Repeat(" ", 200<<10)+"\n"+strings.Repeat("x", maxLine)+"\n")
	if lines, _ := readReplies(t, r, 2); lines[0] != "OK pong" || lines[1] != "ERR line exceeds 1 MiB" {
		t.Fatalf("replies = %q", lines)
	}
	if line, err := r.ReadString('\n'); err != io.EOF {
		t.Fatalf("after the ERR: %q, %v; want EOF", line, err)
	}
}

// TestReadLineDoesNotAllocate: reading a command line that fits the buffer
// costs no allocation (ReadString would cost one per line).
func TestReadLineDoesNotAllocate(t *testing.T) {
	r := bufio.NewReaderSize(strings.NewReader(strings.Repeat("FEED s 1,2,3\n", 2000)), ioBuf)
	fe := &frontEnd{}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := fe.readLine(r); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("readLine: %v allocs per line", allocs)
	}
}

// scriptConn is a connection whose client sent script and closed its write
// side; replies are discarded.
type scriptConn struct {
	net.Conn // nil: serve calls only Read, Write and Close without an error
	r        *strings.Reader
}

func (c *scriptConn) Read(b []byte) (int, error)  { return c.r.Read(b) }
func (c *scriptConn) Write(b []byte) (int, error) { return len(b), nil }
func (c *scriptConn) Close() error                { return nil }

// TestPipelinedFeedBurstAllocs: a pipelined burst of FEED lines costs no
// allocation per line: each line is parsed where it lies in the read
// buffer, the parse slab rewinds after every run, history grows by whole
// chunks and a run's fan-out takes its clones from the pool in one call.
// (The line's string cost one allocation per line, 1.00 until lines were
// parsed in place; before runs and slabs it was ~4: the string,
// strings.Split's slice, the values and the tuple.) It holds
// for a stream no query reads, for two streams fed alternately into an
// equijoin whose every second line finds a match, and for a filter whose
// every second line passes and is pushed to a SUBSCRIBEd client.
func TestPipelinedFeedBurstAllocs(t *testing.T) {
	const n = 4096
	t.Run("one stream", func(t *testing.T) {
		e := core.NewEngine(core.Options{EOs: 1})
		t.Cleanup(e.Stop)
		schema := tuple.NewSchema("s", tuple.Column{Name: "x", Kind: tuple.KindInt},
			tuple.Column{Name: "y", Kind: tuple.KindFloat}, tuple.Column{Name: "z", Kind: tuple.KindInt})
		if err := e.CreateStream("s", schema, -1); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "FEED s %d,%d.5,%d\n", i, i, -i)
		}
		burstAllocs(t, e, b.String(), n, func() bool {
			return e.Metrics().Counter(`tcq_ingress_tuples_total{stream="s"}`).Value() == n
		})
	})
	t.Run("alternating join", func(t *testing.T) {
		e, q := joinEngine(t)
		// A first burst warms the tuple pool and the join's state.
		newFrontEnd(e, &scriptConn{r: strings.NewReader(alternatingFeeds(0, n))}).serve()
		if !chaos.Poll(nil, 10*time.Second, time.Millisecond, func() bool { return q.Results() == n/2 }) {
			t.Fatal("the first burst was not processed within 10 s")
		}
		// How far the front end runs ahead of the join is the scheduler's
		// choice, and each tuple in flight past what the pool holds costs
		// two allocations. Stock the pool with a four-value tuple (the join's
		// width) per line, so the count is the feed path's.
		pool, held := e.TuplePool(), make([]*tuple.Tuple, n)
		for i := range held {
			held[i] = pool.Get(4)
		}
		for _, tu := range held {
			pool.Put(tu)
		}
		burstAllocs(t, e, alternatingFeeds(n/2, n), n, func() bool { return q.Results() == n })
	})
	t.Run("subscribed filter", func(t *testing.T) {
		// Every second line passes the filter and is pushed to a client
		// that drains the connection: the pusher renders each row from the
		// query's result log, so a pushed row costs no allocation (a live
		// pushed row cost two, its header and its values: 2.00 per line).
		e, q := wireEngine(t)
		cli, r, _ := pipeFrontEnd(t, e)
		fmt.Fprintf(cli, "SUBSCRIBE %d\n", q.ID)
		if line, err := r.ReadString('\n'); err != nil || line != fmt.Sprintf("OK subscribed %d\n", q.ID) {
			t.Fatalf("SUBSCRIBE answered %q, %v", line, err)
		}
		var pushed atomic.Int64
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for {
				line, err := r.ReadSlice('\n')
				if err != nil {
					return
				}
				if bytes.HasPrefix(line, []byte("ROW q")) {
					pushed.Add(1)
				}
			}
		}()
		t.Cleanup(func() { cli.Close(); <-drained })
		feeds := func(first int) string {
			var b strings.Builder
			for i := first; i < first+n; i++ {
				fmt.Fprintf(&b, "FEED s %d\n", [2]int{i, -1 - i}[i%2])
			}
			return b.String()
		}
		// A first burst warms the pool, the log and the pusher's buffers.
		io.WriteString(cli, feeds(0))
		if !chaos.Poll(nil, 10*time.Second, time.Millisecond, func() bool { return pushed.Load() == n/2 }) {
			t.Fatalf("%d of %d rows pushed after the first burst", pushed.Load(), n/2)
		}
		pool, held := e.TuplePool(), make([]*tuple.Tuple, n)
		for i := range held {
			held[i] = pool.Get(1)
		}
		for _, tu := range held {
			pool.Put(tu)
		}
		script := feeds(n)
		mallocsPerLine(t, n, func() { io.WriteString(cli, script) }, func() bool { return pushed.Load() == n })
	})
}

// burstAllocs serves script, n FEED lines, to a front end, waits until done
// reports the engine has processed them, and fails when that cost more than
// 0.25 allocations per line.
func burstAllocs(t *testing.T, e *core.Engine, script string, n int, done func() bool) {
	t.Helper()
	fe := newFrontEnd(e, &scriptConn{r: strings.NewReader(script)})
	mallocsPerLine(t, n, fe.serve, done)
}

// mallocsPerLine runs send, which sends n FEED lines, waits until done
// reports the engine has processed them, and fails when that cost more than
// 0.25 allocations per line.
func mallocsPerLine(t *testing.T, n int, send func(), done func() bool) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send()
	if !chaos.Poll(nil, 10*time.Second, time.Millisecond, done) {
		t.Fatal("the burst was not processed within 10 s")
	}
	runtime.ReadMemStats(&after)
	perLine := float64(after.Mallocs-before.Mallocs) / float64(n)
	t.Logf("%.2f mallocs per FEED line", perLine)
	if perLine > 0.25 {
		t.Errorf("%.2f mallocs per FEED line, want <= 0.25", perLine)
	}
}

// joinEngine is an engine with streams r(k, v) and s(k, w) and a standing
// equijoin of them on k.
func joinEngine(t testing.TB) (*core.Engine, *core.RunningQuery) {
	t.Helper()
	e := core.NewEngine(core.Options{EOs: 1})
	t.Cleanup(e.Stop)
	for _, name := range []string{"r", "s"} {
		schema := tuple.NewSchema(name, tuple.Column{Name: "k", Kind: tuple.KindInt}, tuple.Column{Name: "v", Kind: tuple.KindInt})
		if err := e.CreateStream(name, schema, -1); err != nil {
			t.Fatal(err)
		}
	}
	q, err := e.Register("SELECT r.v, s.v FROM r, s WHERE r.k = s.k")
	if err != nil {
		t.Fatal(err)
	}
	return e, q
}

// alternatingFeeds returns n FEED lines alternating r and s, numbered from
// first: line i carries key first+i/2, so each s line matches the r line
// before it.
func alternatingFeeds(first, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "FEED %s %d,%d\n", [2]string{"r", "s"}[i%2], first+i/2, i)
	}
	return b.String()
}

// TestSpoolErrorEndsRunInPlace: when spooling fails partway through a run,
// the lines before the failing one are answered "OK fed", that one ERR, and
// the lines behind it are fed as a new run (here each fails in turn: the
// spool's directory is gone). In a run that mixes the failing stream s with
// a healthy stream r, the replies keep line order and every r line is fed.
func TestSpoolErrorEndsRunInPlace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mixed bool
	}{{"one stream", false}, {"mixed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e := core.NewEngine(core.Options{EOs: 1, SpoolDir: dir, SegmentSize: 8})
			t.Cleanup(e.Stop)
			for _, name := range []string{"s", "r"} {
				if err := e.CreateStream(name, tuple.NewSchema(name, tuple.Column{Name: "x", Kind: tuple.KindInt}), -1); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 5; i++ { // the open segment holds 5 of 8
				if err := e.Feed("s", tuple.New(tuple.Int(int64(i)))); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			cli, r, _ := pipeFrontEnd(t, e)
			// s's lines 5 and 6 fill its open segment and the next fails to
			// flush; r's seven lines fit its own and never flush.
			var b strings.Builder
			var want []string
			rLines := 0
			for i := 5; i < 15; i++ {
				fmt.Fprintf(&b, "FEED s %d\n", i)
				if i < 7 {
					want = append(want, "OK fed")
				} else {
					want = append(want, "ERR storage: flush segment")
				}
				if tc.mixed && rLines < 7 {
					fmt.Fprintf(&b, "FEED r %d\n", i)
					want = append(want, "OK fed")
					rLines++
				}
			}
			pipeline(t, cli, b.String()+"PING\n")
			want = append(want, "OK pong")
			var got []string
			for l := ""; l != "OK pong"; {
				line, err := r.ReadString('\n')
				if err != nil {
					t.Fatalf("after %q: %v", got, err)
				}
				l = strings.TrimSuffix(line, "\n")
				got = append(got, l)
			}
			ok := len(got) == len(want)
			for i := 0; ok && i < len(got); i++ {
				ok = strings.HasPrefix(got[i], want[i])
			}
			if !ok {
				t.Fatalf("replies =\n%s\nwant lines beginning\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			for stream, fed := range map[string]int64{"s": 7, "r": int64(rLines)} {
				if got := e.Metrics().Counter(fmt.Sprintf(`tcq_ingress_tuples_total{stream=%q}`, stream)).Value(); got != fed {
					t.Errorf("tcq_ingress_tuples_total{stream=%q} = %d, want %d", stream, got, fed)
				}
			}
		})
	}
}

// TestSpooledRunsKeepTheirValues: FEED runs pipelined into a spooled stream
// whose open segment outlasts several runs come back from the spool as fed.
// The front door rewinds its parse slab after every run, so a spool that
// kept the run's tuples instead of their values would read back later
// runs' rows in their place.
func TestSpooledRunsKeepTheirValues(t *testing.T) {
	const n = 300 // runs of at most BatchSize 64 lines, one 1,000-row segment
	e := core.NewEngine(core.Options{EOs: 1, SpoolDir: t.TempDir(), SegmentSize: 1000})
	t.Cleanup(e.Stop)
	schema := tuple.NewSchema("s", tuple.Column{Name: "ts", Kind: tuple.KindTime},
		tuple.Column{Name: "v", Kind: tuple.KindInt}, tuple.Column{Name: "name", Kind: tuple.KindString})
	if err := e.CreateStream("s", schema, 0); err != nil {
		t.Fatal(err)
	}
	cli, r, _ := pipeFrontEnd(t, e)
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "FEED s %d,%d,row%d\n", i, i*7, i)
	}
	pipeline(t, cli, b.String()+"PING\n")
	if replies, _ := readReplies(t, r, n+1); replies[n-1] != "OK fed" || replies[n] != "OK pong" {
		t.Fatalf("last replies %q, want OK fed, OK pong", replies[n-1:])
	}
	q, err := e.Register(fmt.Sprintf(`SELECT * FROM s for (; t == 0; t = -1) { WindowIs(s, 1, %d); }`, n))
	if err != nil {
		t.Fatal(err)
	}
	q.Wait()
	rows, err := q.Fetch(q.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("%d rows from the spool, want %d", len(rows), n)
	}
	for i, row := range rows {
		ts := int64(i + 1)
		if row.Vals[0].I != ts || row.Vals[1].I != 7*ts || row.Vals[2].S != fmt.Sprintf("row%d", ts) {
			t.Fatalf("row %d = %v, want [@%d %d row%d]", i, row.Vals, ts, 7*ts, ts)
		}
	}
}

// TestFeedStringColumnSurvivesBufferReuse: a FEED line is parsed where it
// lies in the read buffer, which the next read overwrites, so every STRING
// field must be copied out of it. After some 600 KB of pipelined lines
// with distinct names (the buffer refills many times within the
// connection), among them one line longer than the buffer and lowercase
// feed with tab separators, FETCH returns every name exactly as fed; a
// line for an unknown stream is answered with an ERR naming that stream.
func TestFeedStringColumnSurvivesBufferReuse(t *testing.T) {
	e := core.NewEngine(core.Options{EOs: 1})
	t.Cleanup(e.Stop)
	schema := tuple.NewSchema("p", tuple.Column{Name: "k", Kind: tuple.KindInt}, tuple.Column{Name: "name", Kind: tuple.KindString})
	if err := e.CreateStream("p", schema, -1); err != nil {
		t.Fatal(err)
	}
	q, err := e.Register("SELECT * FROM p")
	if err != nil {
		t.Fatal(err)
	}
	cli, r, _ := pipeFrontEnd(t, e)
	const n, unknown, long = 20000, 1234, 2500
	var b strings.Builder
	var want []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("name-%d-%x", i, i*7919)
		switch {
		case i == unknown:
			fmt.Fprintf(&b, "FEED nosuch %d,%s\n", i, name)
			continue
		case i == long:
			name += strings.Repeat("L", ioBuf) // the line outgrows the read buffer
		}
		if i%5 == 0 {
			fmt.Fprintf(&b, "feed\tp\t%d,\t%s\n", i, name)
		} else {
			fmt.Fprintf(&b, "FEED p %d,%s\n", i, name)
		}
		want = append(want, fmt.Sprintf("%d,%s", i, name))
	}
	pipeline(t, cli, b.String())
	lines, _ := readReplies(t, r, n)
	for i, l := range lines {
		if i == unknown {
			if !strings.HasPrefix(l, "ERR ") || !strings.Contains(l, `"nosuch"`) {
				t.Fatalf("reply %d = %q, want an ERR naming nosuch", i, l)
			}
		} else if l != "OK fed" {
			t.Fatalf("reply %d = %q", i, l)
		}
	}
	waitResults(t, q, int64(len(want)))
	pipeline(t, cli, fmt.Sprintf("FETCH %d\n", q.ID))
	var got []string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d fetched rows: %v", len(got), err)
		}
		if line = strings.TrimSuffix(line, "\n"); line == "END" {
			break
		}
		got = append(got, strings.TrimPrefix(line, "ROW . "))
	}
	if !slices.Equal(got, want) {
		i := firstDiff(got, want)
		row := func(rows []string) string {
			if i >= len(rows) {
				return "none"
			}
			return fmt.Sprintf("%.80q", rows[i])
		}
		t.Fatalf("fetched %d rows, fed %d; row %d is %s, fed as %s", len(got), len(want), i, row(got), row(want))
	}
}

// TestPipelinedFeedsMatchOnePerWrite: a script of FEEDs to two streams and,
// alternating line by line, to the two sides of an equijoin, a malformed
// line, a FEED to an unknown stream, a wrong arity, a FETCH, a STATS and a
// PING between FEEDs, and a QUIT followed by more lines (or an unterminated
// last line and EOF) gets the same replies, line for line, sent in one
// write as sent one line per write. It leaves each stream the same history
// (Seq, TS and values) and the join the same results.
func TestPipelinedFeedsMatchOnePerWrite(t *testing.T) {
	body := []string{
		// Query 0 reads c, which no line feeds, so its FETCH and STATS
		// replies are fixed. Query 3 joins j1 and j2: seven matches.
		"CREATE STREAM c (x INT)", "QUERY SELECT x FROM c WHERE x > 0",
		"CREATE STREAM a (ts TIME, v INT) TIMECOL ts", "QUERY SELECT * FROM a",
		"CREATE STREAM b (k INT, name STRING)", "QUERY SELECT * FROM b",
		"CREATE STREAM j1 (k INT, v INT)", "CREATE STREAM j2 (k INT, w INT)",
		"QUERY SELECT j1.v, j2.w FROM j1, j2 WHERE j1.k = j2.k",
		"FEED a 1,10", "FEED a 2,20", "FEED b 1,one", "FEED b 2,two", "FEED a 3,30",
		"FEED j1 1,10", "FEED j2 1,100", "FEED j1 2,20", "FEED j2 2,200", "FEED j1 1,11",
		"FEED j2 3,300", "FEED j1 3,30", "FEED j2 x,1", "FEED j1 2,21", "FEED j2 1,101",
		"FEED a x,40", "FEED a 4,40", "FEED zz 1", "FEED b 3,three", "FETCH 0",
		"FEED a 5,50", "feed b 4, four ", "STATS 0", "FEED b 5", "FEED", "FEED a 6,60",
		"FEED a 7,70", "", "PING", "FEED b 6,six",
	}
	for _, tc := range []struct {
		name string
		tail []string
		fed  int // the body's 26 FEED lines less its five bad ones, plus the tail's
	}{
		{"quit", []string{"QUIT", "FEED a 8,80", "FEED b 7,seven"}, 21},
		{"eof", []string{"FEED a 8,80", "FEED b 7,seven"}, 23},
	} {
		t.Run(tc.name, func(t *testing.T) {
			script := append(append([]string(nil), body...), tc.tail...)
			// The eof script's last line has no terminator.
			eof := tc.name == "eof"
			piped, pipedHist := runScript(t, script, eof, true)
			single, singleHist := runScript(t, script, eof, false)
			if strings.Join(piped, "\n") != strings.Join(single, "\n") {
				t.Fatalf("replies differ:\npipelined:\n%s\none per write:\n%s",
					strings.Join(piped, "\n"), strings.Join(single, "\n"))
			}
			for s, h := range pipedHist {
				if h != singleHist[s] {
					t.Errorf("%s differs:\npipelined:\n%s\none per write:\n%s", s, h, singleHist[s])
				}
			}
			fed := 0
			for _, l := range piped {
				if l == "OK fed" {
					fed++
				}
			}
			if fed != tc.fed {
				t.Errorf("%d lines fed, want %d; replies:\n%s", fed, tc.fed, strings.Join(piped, "\n"))
			}
			if eof && piped[len(piped)-1] != "OK fed" {
				t.Errorf("unterminated last line answered %q", piped[len(piped)-1])
			}
		})
	}
}

// runScript serves script to a fresh engine. Pipelined, it sends the
// script in one write; otherwise it sends a line per write and reads each
// line's reply before the next. Either way it then closes its write side
// and reads to EOF. It returns the replies and, per stream the script's
// queries 0 to 2 read, its history rendered "Seq TS values" a row per line,
// and under "join" the values of query 3's seven results, sorted: the
// order in which a join finds its matches is the class drain's.
func runScript(t *testing.T, script []string, unterminated, pipelined bool) ([]string, map[string]string) {
	t.Helper()
	e, pm := startServer(t)
	raw, err := net.Dial("tcp", pm.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := raw.(*net.TCPConn)
	defer conn.Close()
	r := bufio.NewReader(conn)
	var replies []string
	readReply := func() { // lines up to an OK, ERR or END
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("reading a reply: %v", err)
			}
			line = strings.TrimSuffix(line, "\n")
			replies = append(replies, line)
			if strings.HasPrefix(line, "OK") || strings.HasPrefix(line, "ERR") || line == "END" {
				return
			}
		}
	}
	text := strings.Join(script, "\n")
	if !unterminated {
		text += "\n"
	}
	if pipelined {
		if _, err := io.WriteString(conn, text); err != nil {
			t.Fatal(err)
		}
	} else {
		quit := false
		for i, line := range script {
			if i < len(script)-1 || !unterminated {
				line += "\n"
			}
			if _, err := io.WriteString(conn, line); err != nil {
				if quit {
					break // the server closed after QUIT
				}
				t.Fatal(err)
			}
			if !quit && strings.TrimSpace(line) != "" && (i < len(script)-1 || !unterminated) {
				readReply()
			}
			quit = quit || strings.TrimSpace(line) == "QUIT"
		}
	}
	conn.CloseWrite() // fails harmlessly once the server closed after QUIT
	for {
		line, err := r.ReadString('\n')
		if line != "" {
			replies = append(replies, strings.TrimSuffix(line, "\n"))
		}
		if err != nil {
			break // EOF, or a reset once the server closed on unread lines
		}
	}
	hist := map[string]string{}
	for id, s := range []string{"c", "a", "b"} {
		q, _ := e.Query(id)
		fed := e.Metrics().Counter(fmt.Sprintf(`tcq_ingress_tuples_total{stream=%q}`, s)).Value()
		if !chaos.Poll(nil, 10*time.Second, time.Millisecond, func() bool { return q.Results() == fed }) {
			t.Fatalf("stream %s: %d of %d results", s, q.Results(), fed)
		}
		rows, err := q.Fetch(q.Cursor())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, row := range rows {
			fmt.Fprintf(&b, "%d %d %v\n", row.Seq, row.TS, row.Vals)
		}
		hist["stream "+s] = b.String()
	}
	q, _ := e.Query(3)
	if !chaos.Poll(nil, 10*time.Second, time.Millisecond, func() bool { return q.Results() == 7 }) {
		t.Fatalf("join: %d of 7 results", q.Results())
	}
	rows, err := q.Fetch(q.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	joined := make([]string, len(rows))
	for i, row := range rows {
		joined[i] = fmt.Sprint(row.Vals)
	}
	slices.Sort(joined)
	hist["join"] = strings.Join(joined, "\n")
	return replies, hist
}

// TestSubscribeReplyPrecedesPushedRows: with rows arriving all the while,
// the first line after SUBSCRIBE is its OK, never a pushed row (the parent
// started the pusher before writing the reply).
func TestSubscribeReplyPrecedesPushedRows(t *testing.T) {
	_, pm := startServer(t)
	admin := dial(t, pm.Addr())
	if err := admin.CreateStream("s", "x INT", ""); err != nil {
		t.Fatal(err)
	}
	qid, err := admin.Query("SELECT x FROM s WHERE x >= 0")
	if err != nil {
		t.Fatal(err)
	}
	feeder := dial(t, pm.Addr())
	stop, fed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(fed)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if feeder.Feed("s", fmt.Sprint(i)) != nil {
				return
			}
		}
	}()
	defer func() { close(stop); <-fed }()

	for i := 0; i < 20; i++ {
		conn, err := net.Dial("tcp", pm.Addr())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "SUBSCRIBE %d\n", qid)
		line, err := bufio.NewReader(conn).ReadString('\n')
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("OK subscribed %d\n", qid); line != want {
			t.Fatalf("subscription %d: first line %q, want %q", i, line, want)
		}
	}
}

// TestFollowSubscribeMatchesFetch: a SUBSCRIBE pusher reads the query's
// result log, so on one connection the rows it pushes are exactly the
// rows FETCH returns for the same query, in the same order, at BatchSize 1
// and 64.
func TestFollowSubscribeMatchesFetch(t *testing.T) {
	const n = 3000
	for _, batch := range []int{1, 64} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			e := core.NewEngine(core.Options{EOs: 1, BatchSize: batch})
			t.Cleanup(e.Stop)
			if err := e.CreateStream("s", tuple.NewSchema("s", tuple.Column{Name: "x", Kind: tuple.KindInt}), -1); err != nil {
				t.Fatal(err)
			}
			q, err := e.Register("SELECT x FROM s WHERE x >= 0")
			if err != nil {
				t.Fatal(err)
			}
			cli, r, _ := pipeFrontEnd(t, e)
			fmt.Fprintf(cli, "SUBSCRIBE %d\n", q.ID)
			var b strings.Builder
			for i := 0; i < n; i++ {
				x := i
				if i%3 == 0 {
					x = -1 - i // every third line fails the filter
				}
				fmt.Fprintf(&b, "FEED s %d\n", x)
			}
			pipeline(t, cli, b.String())
			pushPrefix := fmt.Sprintf("ROW q%d ", q.ID)

			var pushed, fetched []string
			fed, ended := 0, false
			cli.SetReadDeadline(chaos.Real().Now().Add(10 * time.Second))
			for !ended || len(pushed) < len(fetched) {
				line, err := r.ReadString('\n')
				if err != nil {
					t.Fatalf("after %d pushed and %d fetched rows: %v", len(pushed), len(fetched), err)
				}
				line = strings.TrimSuffix(line, "\n")
				switch {
				case strings.HasPrefix(line, pushPrefix):
					pushed = append(pushed, strings.TrimPrefix(line, pushPrefix))
				case strings.HasPrefix(line, "ROW . "):
					fetched = append(fetched, strings.TrimPrefix(line, "ROW . "))
				case line == "END":
					ended = true
				case line == "OK fed":
					if fed++; fed == n {
						// Every line is fed; FETCH once every result is in.
						// The pipe is unbuffered and the pusher may be
						// writing, so the FETCH is sent while this loop
						// reads on.
						waitResults(t, q, 2*n/3)
						pipeline(t, cli, fmt.Sprintf("FETCH %d\n", q.ID))
					}
				case line != fmt.Sprintf("OK subscribed %d", q.ID):
					t.Fatalf("unexpected line %q", line)
				}
			}
			if len(fetched) != 2*n/3 || !slices.Equal(pushed, fetched) {
				t.Fatalf("pushed %d rows, fetched %d; first difference at %d", len(pushed), len(fetched), firstDiff(pushed, fetched))
			}
		})
	}
}

// waitResults waits until q has produced want results.
func waitResults(t *testing.T, q *core.RunningQuery, want int64) {
	t.Helper()
	if !chaos.Poll(nil, 10*time.Second, time.Millisecond, func() bool { return q.Results() == want }) {
		t.Fatalf("%d of %d results", q.Results(), want)
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestUnknownCommandsShareOneSeries: garbage first words all count under
// cmd="UNKNOWN" instead of each minting a permanent series.
func TestUnknownCommandsShareOneSeries(t *testing.T) {
	_, pm := startServer(t)
	c := dial(t, pm.Addr())
	for i := 0; i < 100; i++ {
		if _, err := c.cmd(fmt.Sprintf("BOGUS%d x", i)); err == nil {
			t.Fatalf("BOGUS%d accepted", i)
		}
	}
	rows, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rows, "\n")
	if !strings.Contains(joined, `tcq_server_commands_total{cmd="UNKNOWN"} 100`) {
		t.Errorf("no UNKNOWN series counting 100 in:\n%s", joined)
	}
	if strings.Contains(joined, "BOGUS") {
		t.Errorf("a bogus command minted its own series:\n%s", joined)
	}
}

// TestFetchAllocatesPerCall: a FETCH copies the encoded rows into the
// connection's scratch and decodes each into one reused tuple, so replying
// with 10,000 rows costs what replying with 10 does.
func TestFetchAllocatesPerCall(t *testing.T) {
	e, q := wireEngine(t)
	fe := newFrontEnd(e, &scriptConn{r: strings.NewReader("")})
	qid := strconv.Itoa(q.ID)
	if err := fe.handleFetch(qid); err != nil { // adopts the query with a cursor
		t.Fatal(err)
	}
	fed := int64(0)
	fetch := func(n int) (allocs uint64) {
		for i := 0; i < n; i++ {
			fed++
			if err := e.Feed("s", tuple.New(tuple.Int(fed))); err != nil {
				t.Fatal(err)
			}
		}
		if !chaos.Poll(nil, 10*time.Second, time.Millisecond, func() bool { return q.Results() == fed }) {
			t.Fatalf("%d of %d results", q.Results(), fed)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := fe.handleFetch(qid)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	for _, n := range []int{10, 10000} {
		fetch(n) // the connection's scratch grows to the size once
		a := fetch(n)
		t.Logf("FETCH of %d rows: %d allocations", n, a)
		if a > 50 { // a few, and a few more when a collection starts inside
			t.Errorf("FETCH of %d rows allocates %d times, want a few dozen at most", n, a)
		}
	}
}
