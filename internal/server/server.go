// Package server implements the TelegraphCQ process architecture of
// Figs. 4–5: a Postmaster listens on a well-known port and starts a
// FrontEnd per connection (here: goroutines standing in for forked
// processes). The FrontEnd parses client commands, registers continuous
// queries with the shared engine — adding them dynamically to the running
// executor — and ships results back, either streamed (push cursors) or on
// demand (pull cursors). A Proxy (proxy.go) multiplexes many client
// cursors over one server connection, as in Fig. 5.
//
// The wire protocol is line-oriented:
//
//	CREATE STREAM <name> (<col> <TYPE>, ...) [TIMECOL <col>]
//	FEED <stream> <csv>
//	QUERY <sql on one line>
//	EXPLAIN <sql on one line>  -- bound plan description, no registration
//	EXPLAIN <qid>              -- live per-operator telemetry for a running query
//	TOP [n]                    -- engine-wide hot-module table (default all)
//	SUBSCRIBE <qid>            -- push delivery: ROW q<qid> <csv> lines
//	FETCH <qid>                -- pull delivery: ROW lines then END
//	DEREGISTER <qid>
//	STATS <qid>                -- results + adaptive-routing + shard counters
//	METRICS                    -- engine metric registry snapshot
//	TRACE <qid>                -- sampled tuple-lineage traces
//	LIST
//	PING
//	QUIT
//
// Replies are "OK ...", "ERR <msg>", "ROW ...", "END".
//
// Pipelining: a client may send many commands in one write without waiting
// for replies, which come back in command order. Consecutive FEED lines of
// any streams form a run, parsed into per-connection slabs, up to
// Options.BatchSize lines; any other command, a line that cannot be fed,
// and the input running dry each end the run, so a later command sees every
// earlier line fed. Each stream's lines in a run go to Engine.FeedMany in
// one call, in line order: each stream's arrival order is unchanged, and a
// line the engine refuses is answered ERR in place, its stream's later
// lines fed after it. Replies are flushed when the connection's input is
// drained — before the FrontEnd reads again with no complete line
// buffered — so a pipelined burst costs a socket write per read and per 64
// KiB of replies, not one per line. Push rows
// ("ROW q<qid> ...") are written by their own goroutine and may fall
// between any two reply lines except inside a FETCH. A line longer than
// 1 MiB is answered with "ERR line exceeds 1 MiB" and the connection closed.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"log"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"telegraphcq/internal/core"
	"telegraphcq/internal/egress"
	"telegraphcq/internal/ingress"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/tuple"
)

// Postmaster accepts connections for an engine.
type Postmaster struct {
	engine *core.Engine
	ln     net.Listener
	wg     sync.WaitGroup
	closed atomic.Bool
	conns  atomic.Int64
}

// Listen starts a postmaster on addr ("127.0.0.1:0" picks a free port).
func Listen(engine *core.Engine, addr string) (*Postmaster, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	pm := &Postmaster{engine: engine, ln: ln}
	pm.wg.Add(1)
	go pm.accept()
	return pm, nil
}

// Addr returns the bound address.
func (pm *Postmaster) Addr() string { return pm.ln.Addr().String() }

// Connections returns the number of accepted connections.
func (pm *Postmaster) Connections() int64 { return pm.conns.Load() }

func (pm *Postmaster) accept() {
	defer pm.wg.Done()
	for {
		conn, err := pm.ln.Accept()
		if err != nil {
			return
		}
		pm.conns.Add(1)
		pm.engine.Metrics().Counter("tcq_server_connections_total").Inc()
		pm.wg.Add(1)
		// "The Postmaster forks a FrontEnd process for each fresh
		// connection it receives" (§4.2.1).
		go func() {
			defer pm.wg.Done()
			newFrontEnd(pm.engine, conn).serve()
		}()
	}
}

// Close stops accepting and waits for FrontEnds to finish.
func (pm *Postmaster) Close() error {
	if pm.closed.Swap(true) {
		return nil
	}
	err := pm.ln.Close()
	pm.wg.Wait()
	return err
}

const (
	// pushBatch is the most rows a SUBSCRIBE pusher writes under one flush.
	pushBatch = 64
	// ioBuf sizes a connection's read and write buffers: a drained read of
	// pipelined commands is answered in one write per ioBuf of replies.
	ioBuf = 64 << 10
	// maxLine caps one command line, terminator included.
	maxLine = 1 << 20
)

// errLineTooLong ends a connection whose client sent a line over maxLine.
var errLineTooLong = errors.New("line exceeds 1 MiB")

// frontEnd serves one client connection.
type frontEnd struct {
	engine *core.Engine
	conn   net.Conn
	wmu    sync.Mutex // serializes writes: pushers and replies interleave
	w      *bufio.Writer
	werr   error  // first write error, guarded by wmu; logged once
	row    []byte // handleFetch's row scratch, guarded by wmu
	long   []byte // readLine's scratch for a line longer than the read buffer
	// fetched and fetchRow are handleFetch's scratch: the encoded rows a
	// FETCH copies out of the pull log, and the tuple each is decoded into.
	fetched  []byte
	fetchRow tuple.Tuple
	// cmdCount holds the tcq_server_commands_total series this connection
	// has counted into, so each is looked up in the registry once.
	cmdCount map[string]*metrics.Counter

	// run holds the FEED lines parsed but not yet fed: consecutive lines
	// of any streams, at most batch of them, carved from slab.
	run   feedRun
	batch int
	slab  ingress.Slab

	mu      sync.Mutex
	queries map[int]*core.RunningQuery
	cursors map[int]int    // qid -> pull cursor
	pushers map[int]func() // qid -> stop the SUBSCRIBE pusher and wait for it
}

func newFrontEnd(engine *core.Engine, conn net.Conn) *frontEnd {
	return &frontEnd{
		engine:   engine,
		conn:     conn,
		w:        bufio.NewWriterSize(conn, ioBuf),
		cmdCount: make(map[string]*metrics.Counter),
		batch:    engine.Options().BatchSize,
		queries:  make(map[int]*core.RunningQuery),
		cursors:  make(map[int]int),
		pushers:  make(map[int]func()),
	}
}

// send buffers one reply line. serve flushes once the connection's input
// is drained.
func (fe *frontEnd) send(line string) { fe.sendN(line, 1) }

// sendN buffers n copies of one reply line under one lock acquisition.
func (fe *frontEnd) sendN(line string, n int) {
	fe.wmu.Lock()
	defer fe.wmu.Unlock()
	for ; n > 0; n-- {
		fe.w.WriteString(line)
		fe.w.WriteByte('\n')
	}
}

// flush writes every buffered reply to the connection.
func (fe *frontEnd) flush() {
	fe.wmu.Lock()
	defer fe.wmu.Unlock()
	fe.flushLocked()
}

// sendBytes writes already terminated lines under one lock acquisition and
// flush: the SUBSCRIBE pushers' path, which no read of serve's would flush.
func (fe *frontEnd) sendBytes(lines []byte) {
	fe.wmu.Lock()
	defer fe.wmu.Unlock()
	fe.w.Write(lines)
	fe.flushLocked()
}

// flushLocked flushes the reply writer, logging the first failure once: a
// client that vanished mid-push would otherwise fail every subsequent
// line, and serve's read loop is about to exit anyway.
func (fe *frontEnd) flushLocked() {
	if err := fe.w.Flush(); err != nil && fe.werr == nil {
		fe.werr = err
		log.Printf("server: client %s write: %v", fe.conn.RemoteAddr(), err)
	}
}

func (fe *frontEnd) serve() {
	defer func() {
		if err := fe.conn.Close(); err != nil {
			log.Printf("server: client %s close: %v", fe.conn.RemoteAddr(), err)
		}
	}()
	defer fe.flush()
	defer fe.stopPushers()
	defer fe.closeCursors()
	r := bufio.NewReaderSize(fe.conn, ioBuf)
	for {
		if !lineBuffered(r) {
			// The next read may block: feed the run and answer what was
			// asked, so no tuple or reply waits on the client.
			fe.feedRun()
			fe.flush()
		}
		raw, err := fe.readLine(r)
		if err == errLineTooLong {
			fe.feedRun()
			log.Printf("server: client %s: %v; closing", fe.conn.RemoteAddr(), err)
			fe.send("ERR " + err.Error())
			return
		}
		line := string(bytes.TrimSpace(raw))
		word := firstWord(line)
		cmd, rest := strings.ToUpper(word), strings.TrimSpace(line[len(word):])
		switch {
		case cmd == "FEED":
			fe.feedLine(rest)
		case line == "":
		case strings.EqualFold(line, "QUIT"):
			fe.feedRun()
			fe.send("OK bye")
			return
		default:
			fe.feedRun() // every other command sees each earlier line fed
			fe.dispatch(cmd, rest, line)
		}
		if err != nil {
			fe.feedRun()
			return // EOF or a read error, after serving a last unterminated line
		}
	}
}

// lineBuffered reports whether r holds a complete line, i.e. whether the
// next readLine returns without reading the connection.
func lineBuffered(r *bufio.Reader) bool {
	b, _ := r.Peek(r.Buffered()) // within Buffered: never reads, never fails
	return bytes.IndexByte(b, '\n') >= 0
}

// readLine returns the next line, terminator included. The slice is valid
// until the next call: a line that fits the read buffer is returned in
// place, a longer one is assembled in fe.long, up to maxLine.
func (fe *frontEnd) readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	fe.long = append(fe.long[:0], line...)
	for err == bufio.ErrBufferFull {
		if line, err = r.ReadSlice('\n'); len(fe.long)+len(line) > maxLine {
			return nil, errLineTooLong
		}
		fe.long = append(fe.long, line...)
	}
	return fe.long, err
}

func (fe *frontEnd) stopPushers() {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	for _, stop := range fe.pushers {
		stop()
	}
	fe.pushers = map[int]func(){}
}

// closeCursors drops every pull cursor the connection opened; the queries
// stand on, and the next connection to fetch from one opens its own.
func (fe *frontEnd) closeCursors() {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	for id, cur := range fe.cursors {
		fe.queries[id].CloseCursor(cur)
	}
	fe.cursors = map[int]int{}
}

// dispatch serves every command but FEED and QUIT, which serve handles;
// cmd is line's first word in upper case and rest what follows it.
func (fe *frontEnd) dispatch(cmd, rest, line string) {
	var err error
	switch cmd {
	case "PING":
		fe.send("OK pong")
	case "CREATE":
		err = fe.handleCreate(rest)
	case "QUERY", "SELECT":
		text := rest
		if cmd == "SELECT" {
			text = line // the SELECT itself is the query
		}
		err = fe.handleQuery(text)
	case "EXPLAIN":
		err = fe.handleExplain(rest)
	case "TOP":
		err = fe.handleTop(rest)
	case "SUBSCRIBE":
		err = fe.handleSubscribe(rest)
	case "FETCH":
		err = fe.handleFetch(rest)
	case "DEREGISTER":
		err = fe.handleDeregister(rest)
	case "STATS":
		err = fe.handleStats(rest)
	case "METRICS":
		fe.handleMetrics()
	case "TRACE":
		err = fe.handleTrace(rest)
	case "LIST":
		fe.handleList()
	case "INFO":
		fe.handleInfo()
	default:
		err = fmt.Errorf("unknown command %q", cmd)
		// Every garbage word shares one series, or a client could grow
		// the registry without bound.
		cmd = "UNKNOWN"
	}
	if err != nil {
		fe.send("ERR " + err.Error())
	}
	fe.count(cmd, 1)
}

// count adds n to the tcq_server_commands_total series of cmd.
func (fe *frontEnd) count(cmd string, n int) {
	c, ok := fe.cmdCount[cmd]
	if !ok {
		c = fe.engine.Metrics().Counter(fmt.Sprintf(`tcq_server_commands_total{cmd=%q}`, cmd))
		fe.cmdCount[cmd] = c
	}
	c.Add(int64(n))
}

func firstWord(s string) string {
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		return s[:i]
	}
	return s
}

// handleCreate parses "STREAM name (col TYPE, ...) [TIMECOL col]".
func (fe *frontEnd) handleCreate(rest string) error {
	if !strings.HasPrefix(strings.ToUpper(rest), "STREAM ") {
		return fmt.Errorf("expected CREATE STREAM")
	}
	rest = strings.TrimSpace(rest[len("STREAM "):])
	open := strings.IndexByte(rest, '(')
	closeP := strings.LastIndexByte(rest, ')')
	if open < 0 || closeP < open {
		return fmt.Errorf("expected column list in parentheses")
	}
	name := strings.TrimSpace(rest[:open])
	colsSpec := rest[open+1 : closeP]
	tail := strings.Fields(strings.TrimSpace(rest[closeP+1:]))

	var cols []tuple.Column
	for _, part := range strings.Split(colsSpec, ",") {
		fs := strings.Fields(strings.TrimSpace(part))
		if len(fs) != 2 {
			return fmt.Errorf("bad column spec %q", part)
		}
		kind, err := parseKind(fs[1])
		if err != nil {
			return err
		}
		cols = append(cols, tuple.Column{Name: fs[0], Kind: kind})
	}
	schema := tuple.NewSchema(name, cols...)
	timeCol := -1
	if len(tail) == 2 && strings.EqualFold(tail[0], "TIMECOL") {
		timeCol = schema.ColumnIndex(tail[1])
		if timeCol < 0 {
			return fmt.Errorf("TIMECOL %q not in schema", tail[1])
		}
	}
	if err := fe.engine.CreateStream(name, schema, timeCol); err != nil {
		return err
	}
	fe.send("OK stream " + name)
	return nil
}

func parseKind(s string) (tuple.Kind, error) {
	switch strings.ToUpper(s) {
	case "INT", "BIGINT", "LONG":
		return tuple.KindInt, nil
	case "FLOAT", "DOUBLE", "REAL":
		return tuple.KindFloat, nil
	case "STRING", "TEXT", "CHAR", "VARCHAR":
		return tuple.KindString, nil
	case "BOOL", "BOOLEAN":
		return tuple.KindBool, nil
	case "TIME", "TIMESTAMP":
		return tuple.KindTime, nil
	default:
		return 0, fmt.Errorf("unknown type %q", s)
	}
}

// feedRun is a run of FEED lines waiting for Engine.FeedMany: up to batch
// parsed lines of any streams. streams[:n] hold each stream's lines, the
// streams in the order of their first line; the rest keep their capacity
// for later runs. line holds each line's index into streams, in line order.
type feedRun struct {
	streams []runStream
	n       int
	line    []int
}

// runStream is one stream's lines in a run, in line order, and the lines
// the engine refused. answered counts the lines answered so far.
type runStream struct {
	name     string
	schema   *tuple.Schema
	ts       []*tuple.Tuple
	refused  []refusal
	answered int
}

// refusal is a line the engine refused: its index among its stream's lines
// in the run, and why.
type refusal struct {
	at  int
	err error
}

// feedLine parses one FEED line ("<stream> <csv>") onto the run, feeding
// the run once it holds batch lines. A line that cannot join it (no CSV,
// an unknown stream, a malformed row) ends the run before it and is
// answered ERR in its place.
func (fe *frontEnd) feedLine(rest string) {
	i := strings.IndexAny(rest, " \t")
	if i < 0 {
		fe.feedErr(errors.New("FEED needs a stream and a CSV row"))
		return
	}
	si, err := fe.streamIndex(rest[:i])
	if err != nil {
		fe.feedErr(err)
		return
	}
	rs := &fe.run.streams[si]
	t, err := fe.slab.ParseCSV(rs.schema, strings.TrimSpace(rest[i:]))
	if err != nil {
		fe.feedErr(err)
		return
	}
	rs.ts = append(rs.ts, t)
	if fe.run.line = append(fe.run.line, si); len(fe.run.line) >= fe.batch {
		fe.feedRun()
	}
}

// streamIndex returns the index of stream's lines in the run, opening them
// with the stream's schema if the run holds none: the catalog is read once
// per stream per run.
func (fe *frontEnd) streamIndex(stream string) (int, error) {
	run := &fe.run
	for i := range run.streams[:run.n] {
		if run.streams[i].name == stream {
			return i, nil
		}
	}
	entry, err := fe.engine.Catalog().Lookup(stream)
	if err != nil {
		return 0, err
	}
	if run.n == len(run.streams) {
		run.streams = append(run.streams, runStream{})
	}
	rs := &run.streams[run.n]
	rs.name, rs.schema = stream, entry.Schema
	run.n++
	return run.n - 1, nil
}

// feedErr answers a FEED line that joined no run, after the run before it.
func (fe *frontEnd) feedErr(err error) {
	fe.feedRun()
	fe.send("ERR " + err.Error())
	fe.count("FEED", 1)
}

// feedRun hands each stream's lines to FeedMany as one slice, so they reach
// the stream's queues together, and answers every line in line order: "OK
// fed", or "ERR ..." for a line whose tuple the engine refused, after which
// that stream's lines behind it are fed as a new run.
func (fe *frontEnd) feedRun() {
	run := &fe.run
	if len(run.line) == 0 {
		return
	}
	fe.count("FEED", len(run.line))
	streams := run.streams[:run.n]
	for i := range streams {
		rs := &streams[i]
		for at := 0; at < len(rs.ts); at++ {
			n, err := fe.engine.FeedMany(rs.name, rs.ts[at:])
			if err == nil {
				break
			}
			at += n
			rs.refused = append(rs.refused, refusal{at, err})
		}
	}
	ok := 0
	for _, si := range run.line {
		rs := &streams[si]
		if len(rs.refused) > 0 && rs.refused[0].at == rs.answered {
			fe.sendN("OK fed", ok)
			fe.send("ERR " + rs.refused[0].err.Error())
			ok, rs.refused = 0, rs.refused[1:]
		} else {
			ok++
		}
		rs.answered++
	}
	fe.sendN("OK fed", ok)
	// FeedMany kept none of the tuples: the next run reuses the slab's
	// blocks, and the cleared run pins none it leaves behind.
	for i := range streams {
		rs := &streams[i]
		clear(rs.ts)
		rs.ts, rs.refused, rs.answered = rs.ts[:0], nil, 0
	}
	run.n, run.line = 0, run.line[:0]
	fe.slab.Reset()
}

// handleExplain serves two forms. Given SQL text it binds the query
// without registering it and returns the static plan description. Given a
// query id it returns the live telemetry of the running query instead:
// eddy counters, per-module visit/selectivity/ticket-share rates, probe
// latencies and queue depth — the "live EXPLAIN" over the same snapshot
// that feeds tcq.stats.
func (fe *frontEnd) handleExplain(text string) error {
	if id, err := strconv.Atoi(strings.TrimSpace(text)); err == nil {
		return fe.explainLive(id)
	}
	plan, err := sql.ParseAndBind(text, fe.engine.Catalog())
	if err != nil {
		return err
	}
	for _, line := range plan.Describe() {
		fe.send("ROW . " + line)
	}
	fe.send("END")
	return nil
}

func (fe *frontEnd) explainLive(id int) error {
	qt, err := fe.engine.ExplainQuery(id)
	if err != nil {
		return err
	}
	fe.send(fmt.Sprintf(
		"ROW . query %s id=%d results=%d queue=%d ingested=%d emitted=%d dropped=%d decisions=%d visits=%d runs=%d splits=%d",
		qt.Label, qt.ID, qt.Results, qt.QueueDepth,
		qt.Stats.Ingested, qt.Stats.Emitted, qt.Stats.Dropped,
		qt.Stats.Decisions, qt.Stats.Visits, qt.Stats.Runs, qt.Stats.Splits))
	if qt.Policy != "" {
		line := fmt.Sprintf("ROW . policy %s order=[%s]", qt.Policy, strings.Join(qt.Order, ">"))
		if qt.Stats.Orders > 0 || qt.Stats.NWayPruned > 0 {
			line += fmt.Sprintf(" orders=%d orderReuses=%d nwayPruned=%d",
				qt.Stats.Orders, qt.Stats.OrderReuses, qt.Stats.NWayPruned)
		}
		fe.send(line)
	}
	if len(qt.Modules) > 0 {
		fe.send("ROW . module\tvisits\tproduced\tselectivity\ttickets\tshare\tprobe_ns")
		for _, m := range qt.Modules {
			fe.send(fmt.Sprintf("ROW . %s\t%d\t%d\t%.3f\t%d\t%.3f\t%d",
				m.Module, m.Visits, m.Produced, m.Selectivity, m.Tickets, m.TicketShare, m.ProbeNanos))
		}
	}
	fe.send("END")
	return nil
}

// handleTop reports the engine-wide hot-module table: every module of
// every standing query (shared classes counted once), sorted by visits.
func (fe *frontEnd) handleTop(rest string) error {
	n := 0
	if rest = strings.TrimSpace(rest); rest != "" {
		v, err := strconv.Atoi(rest)
		if err != nil {
			return fmt.Errorf("bad TOP count %q", rest)
		}
		n = v
	}
	fe.send("ROW . query\tmodule\tvisits\tproduced\tselectivity\tshare\tprobe_ns")
	for _, m := range fe.engine.TopModules(n) {
		fe.send(fmt.Sprintf("ROW . %s\t%s\t%d\t%d\t%.3f\t%.3f\t%d",
			m.Owner, m.Module, m.Visits, m.Produced, m.Selectivity, m.TicketShare, m.ProbeNanos))
	}
	fe.send("END")
	return nil
}

func (fe *frontEnd) handleQuery(text string) error {
	q, err := fe.engine.Register(text)
	if err != nil {
		return err
	}
	fe.mu.Lock()
	fe.queries[q.ID] = q
	fe.cursors[q.ID] = q.Cursor()
	fe.mu.Unlock()
	fe.send(fmt.Sprintf("OK QUERYID %d", q.ID))
	return nil
}

func (fe *frontEnd) query(rest string) (*core.RunningQuery, int, error) {
	id, err := strconv.Atoi(strings.TrimSpace(rest))
	if err != nil {
		return nil, 0, fmt.Errorf("bad query id %q", rest)
	}
	fe.mu.Lock()
	defer fe.mu.Unlock()
	q, ok := fe.queries[id]
	if !ok {
		// Queries belong to the engine, not the connection: adopt the
		// running query with a fresh cursor, so a client that reconnects
		// (e.g. the proxy redialing around a connection fault) can keep
		// subscribing and fetching by id.
		q, ok = fe.engine.Query(id)
		if !ok {
			return nil, 0, fmt.Errorf("query %d not registered", id)
		}
		fe.queries[id] = q
		fe.cursors[id] = q.Cursor()
	}
	return q, id, nil
}

func (fe *frontEnd) handleSubscribe(rest string) error {
	q, id, err := fe.query(rest)
	if err != nil {
		return err
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	fe.mu.Lock()
	if _, dup := fe.pushers[id]; dup {
		fe.mu.Unlock()
		return fmt.Errorf("query %d already subscribed", id)
	}
	fe.pushers[id] = func() { close(stop); <-stopped }
	fe.mu.Unlock()
	// The pusher follows the query's result log: each wake-up renders what
	// the log gained into one reused buffer, one reused tuple per row, and
	// writes it pushBatch rows per lock and flush, so a fast query pays
	// neither a syscall nor an allocation per row. The reply is buffered
	// under wmu before the pusher starts, and the pusher's writes take wmu,
	// so no pushed row can precede it.
	prefix := fmt.Sprintf("ROW q%d ", id)
	var row tuple.Tuple
	var buf []byte
	fe.wmu.Lock()
	defer fe.wmu.Unlock()
	fmt.Fprintf(fe.w, "OK subscribed %d\n", id)
	q.Follow(stop, func(enc egress.Encoded) bool {
		rows := 0
		err := enc.Each(&row, func(t *tuple.Tuple) bool {
			buf = append(ingress.AppendCSV(append(buf, prefix...), t), '\n')
			if rows++; rows == pushBatch {
				fe.sendBytes(buf)
				buf, rows = buf[:0], 0
			}
			return true
		})
		if rows > 0 {
			fe.sendBytes(buf)
			buf = buf[:0]
		}
		return err == nil
	}, func() { close(stopped) })
	return nil
}

func (fe *frontEnd) handleFetch(rest string) error {
	q, id, err := fe.query(rest)
	if err != nil {
		return err
	}
	fe.mu.Lock()
	cur := fe.cursors[id]
	fe.mu.Unlock()
	// The rows are copied out of the pull log in its encoding, and the log's
	// lock is released before any of them is decoded or written.
	enc, err := q.FetchEncoded(cur, fe.fetched[:0])
	fe.fetched = enc.Buf
	if err != nil {
		return err
	}
	// Pull rows carry the "." tag so clients can tell them apart from
	// asynchronous push rows ("ROW q<id> ...") on the same connection. One
	// lock acquisition for the whole reply keeps push rows out of it; each
	// row is decoded into one reused tuple and rendered into one reused
	// buffer, and bufio writes a full buffer at a time.
	fe.wmu.Lock()
	defer fe.wmu.Unlock()
	err = enc.Each(&fe.fetchRow, func(t *tuple.Tuple) bool {
		fe.row = append(ingress.AppendCSV(append(fe.row[:0], "ROW . "...), t), '\n')
		fe.w.Write(fe.row)
		return true
	})
	fe.w.WriteString("END\n")
	return err
}

// handleStats reports a query's adaptive-routing counters.
func (fe *frontEnd) handleStats(rest string) error {
	q, _, err := fe.query(rest)
	if err != nil {
		return err
	}
	fe.send(fmt.Sprintf("ROW . results=%d inputDrops=%d done=%v",
		q.Results(), q.InputDrops(), q.Done()))
	if st, ok := q.EddyStats(); ok {
		fe.send(fmt.Sprintf("ROW . eddy: ingested=%d emitted=%d dropped=%d decisions=%d visits=%d runs=%d splits=%d",
			st.Ingested, st.Emitted, st.Dropped, st.Decisions, st.Visits, st.Runs, st.Splits))
		for i, m := range st.Modules {
			line := fmt.Sprintf("ROW . module %d: visits=%d selectivity=%.3f produced=%d",
				i, m.Visits, m.Selectivity(), m.Produced)
			// Lottery-based policies also expose their adaptation state:
			// the module's current ticket count.
			if i < len(st.Tickets) {
				line += fmt.Sprintf(" tickets=%d", st.Tickets[i])
			}
			fe.send(line)
		}
	}
	// Queries whose class runs on worker shards also carry the pipeline's
	// counters (the tcq_parallel_* metric family), merged into the same
	// report.
	if ps, ok := q.ParallelStats(); ok {
		avg := 0.0
		if ps.Batches > 0 {
			avg = float64(ps.Ingested) / float64(ps.Batches)
		}
		depths := make([]string, len(ps.QueueDepths))
		for i, d := range ps.QueueDepths {
			depths[i] = strconv.Itoa(d)
		}
		fe.send(fmt.Sprintf("ROW . parallel: workers=%d ingested=%d merged=%d batches=%d avgBatch=%.1f queues=%s",
			ps.Workers, ps.Ingested, ps.Merged, ps.Batches, avg, strings.Join(depths, ",")))
	}
	fe.send("END")
	return nil
}

// handleMetrics dumps the engine registry snapshot, one series per row.
func (fe *frontEnd) handleMetrics() {
	for _, s := range fe.engine.Metrics().Snapshot() {
		fe.send(fmt.Sprintf("ROW . %s %g", s.Name, s.Value))
	}
	fe.send("END")
}

// handleTrace reports the sampled lineage traces recorded for a query.
func (fe *frontEnd) handleTrace(rest string) error {
	q, _, err := fe.query(rest)
	if err != nil {
		return err
	}
	traces, err := fe.engine.Traces(q.ID)
	if err != nil {
		return err
	}
	for _, tr := range traces {
		fe.send("ROW . " + tr.String())
	}
	fe.send("END")
	return nil
}

func (fe *frontEnd) handleDeregister(rest string) error {
	_, id, err := fe.query(rest)
	if err != nil {
		return err
	}
	fe.mu.Lock()
	stop := fe.pushers[id]
	delete(fe.pushers, id)
	delete(fe.queries, id)
	delete(fe.cursors, id)
	fe.mu.Unlock()
	if stop != nil {
		stop()
	}
	if err := fe.engine.Deregister(id); err != nil {
		return err
	}
	fe.send(fmt.Sprintf("OK deregistered %d", id))
	return nil
}

// handleInfo reports the engine's effective execution configuration —
// notably the parallel settings, so a client can tell whether eligible
// queries run partitioned and at what batch granularity.
func (fe *frontEnd) handleInfo() {
	opts := fe.engine.Options()
	fe.send(fmt.Sprintf("ROW . workers=%d batchSize=%d eos=%d queueCap=%d shed=%v spool=%v",
		opts.Workers, opts.BatchSize, opts.EOs, opts.QueueCap, opts.Shed, opts.SpoolDir != ""))
	fe.send("END")
}

func (fe *frontEnd) handleList() {
	for _, e := range fe.engine.Catalog().List() {
		fe.send(fmt.Sprintf("ROW . %s %s %s", e.Kind, e.Name, e.Schema))
	}
	fe.send("END")
}
