package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
)

// Client is the call-level interface to a TelegraphCQ server (the role
// ODBC/JDBC play for PostgreSQL, §4.2.1). One connection carries many
// cursors: synchronous commands interleave with asynchronous push rows,
// demultiplexed by the reader goroutine.
type Client struct {
	conn net.Conn
	w    *bufio.Writer

	cmdMu   sync.Mutex // one command in flight at a time
	replyCh chan string

	subMu   sync.Mutex
	subs    map[int]chan string
	dropped map[int]int64 // pushed rows that found their channel full, per query

	readErr  error
	readDone chan struct{}
}

// Dial connects to a postmaster (directly or through a proxy).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	c := &Client{
		conn:     conn,
		w:        bufio.NewWriter(conn),
		replyCh:  make(chan string, 64),
		subs:     make(map[int]chan string),
		dropped:  make(map[int]int64),
		readDone: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	defer close(c.readDone)
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if qid, csv, ok := parsePushRow(line); ok {
			c.subMu.Lock()
			if ch := c.subs[qid]; ch != nil {
				select {
				case ch <- csv:
				default: // slow consumer: drop and count, so replies on the same connection never wait
					c.dropped[qid]++
				}
			}
			c.subMu.Unlock()
			continue
		}
		c.replyCh <- line
	}
	c.readErr = sc.Err()
	close(c.replyCh)
	// Close subscription channels so push consumers (e.g. proxy pump
	// goroutines) observe the dead connection instead of blocking forever.
	c.subMu.Lock()
	for qid, ch := range c.subs {
		close(ch)
		delete(c.subs, qid)
	}
	c.subMu.Unlock()
}

// parsePushRow recognizes "ROW q<id> <csv>".
func parsePushRow(line string) (qid int, csv string, ok bool) {
	if !strings.HasPrefix(line, "ROW q") {
		return 0, "", false
	}
	rest := line[len("ROW q"):]
	i := strings.IndexByte(rest, ' ')
	if i < 0 {
		return 0, "", false
	}
	id, err := strconv.Atoi(rest[:i])
	if err != nil {
		return 0, "", false
	}
	return id, rest[i+1:], true
}

func (c *Client) sendLine(line string) error {
	if _, err := c.w.WriteString(line + "\n"); err != nil {
		return err
	}
	return c.w.Flush()
}

// cmd sends one command and returns its single-line reply (OK payload) or
// an error for ERR replies.
func (c *Client) cmd(line string) (string, error) {
	c.cmdMu.Lock()
	defer c.cmdMu.Unlock()
	if err := c.sendLine(line); err != nil {
		return "", err
	}
	reply, ok := <-c.replyCh
	if !ok {
		return "", fmt.Errorf("client: connection closed (%v)", c.readErr)
	}
	return parseReply(reply)
}

func parseReply(line string) (string, error) {
	switch {
	case strings.HasPrefix(line, "OK"):
		return strings.TrimSpace(strings.TrimPrefix(line, "OK")), nil
	case strings.HasPrefix(line, "ERR "):
		return "", fmt.Errorf("server: %s", line[4:])
	default:
		return "", fmt.Errorf("client: unexpected reply %q", line)
	}
}

// cmdRows sends a command expecting "ROW . ..." lines terminated by END.
func (c *Client) cmdRows(line string) ([]string, error) {
	c.cmdMu.Lock()
	defer c.cmdMu.Unlock()
	if err := c.sendLine(line); err != nil {
		return nil, err
	}
	var rows []string
	for reply := range c.replyCh {
		switch {
		case strings.HasPrefix(reply, "ROW . "):
			rows = append(rows, reply[len("ROW . "):])
		case reply == "END":
			return rows, nil
		case strings.HasPrefix(reply, "ERR "):
			return nil, fmt.Errorf("server: %s", reply[4:])
		default:
			return nil, fmt.Errorf("client: unexpected reply %q", reply)
		}
	}
	return nil, fmt.Errorf("client: connection closed (%v)", c.readErr)
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.cmd("PING")
	return err
}

// CreateStream issues CREATE STREAM with the given column spec, e.g.
// "ts TIME, sym STRING, price FLOAT" and optional time column.
func (c *Client) CreateStream(name, colSpec, timeCol string) error {
	cmd := fmt.Sprintf("CREATE STREAM %s (%s)", name, colSpec)
	if timeCol != "" {
		cmd += " TIMECOL " + timeCol
	}
	_, err := c.cmd(cmd)
	return err
}

// Feed sends one CSV row into a stream.
func (c *Client) Feed(stream, csv string) error {
	_, err := c.cmd("FEED " + stream + " " + csv)
	return err
}

// Query registers a continuous query and returns its id.
func (c *Client) Query(sqlText string) (int, error) {
	oneLine := strings.Join(strings.Fields(sqlText), " ")
	reply, err := c.cmd("QUERY " + oneLine)
	if err != nil {
		return 0, err
	}
	var id int
	if _, err := fmt.Sscanf(reply, "QUERYID %d", &id); err != nil {
		return 0, fmt.Errorf("client: bad QUERY reply %q", reply)
	}
	return id, nil
}

// Subscribe starts push delivery for a query; rows arrive as CSV on the
// returned channel (buffered; a row that finds it full is dropped and
// counted in Dropped).
func (c *Client) Subscribe(qid int, buffer int) (<-chan string, error) {
	if buffer < 1 {
		buffer = 256
	}
	ch := make(chan string, buffer)
	c.subMu.Lock()
	c.subs[qid] = ch
	c.subMu.Unlock()
	if _, err := c.cmd(fmt.Sprintf("SUBSCRIBE %d", qid)); err != nil {
		c.subMu.Lock()
		delete(c.subs, qid)
		c.subMu.Unlock()
		return nil, err
	}
	return ch, nil
}

// Dropped returns how many rows pushed for query qid this client dropped
// because its Subscribe channel was full. A row the server itself missed
// (behind the result log's cap) never reaches the client, so it is not
// counted here but in tcq_egress_push_dropped_total.
func (c *Client) Dropped(qid int) int64 {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	return c.dropped[qid]
}

// Fetch pulls the results accumulated since the last Fetch.
func (c *Client) Fetch(qid int) ([]string, error) {
	return c.cmdRows(fmt.Sprintf("FETCH %d", qid))
}

// Deregister removes a standing query.
func (c *Client) Deregister(qid int) error {
	_, err := c.cmd(fmt.Sprintf("DEREGISTER %d", qid))
	return err
}

// List returns the catalog contents as display rows.
func (c *Client) List() ([]string, error) {
	return c.cmdRows("LIST")
}

// Close ends the session.
func (c *Client) Close() error {
	c.cmdMu.Lock()
	c.sendLine("QUIT")
	c.cmdMu.Unlock()
	err := c.conn.Close()
	<-c.readDone
	return err
}

// Explain returns the bound plan description of a query without
// registering it.
func (c *Client) Explain(sqlText string) ([]string, error) {
	oneLine := strings.Join(strings.Fields(sqlText), " ")
	return c.cmdRows("EXPLAIN " + oneLine)
}

// ExplainQuery returns the live telemetry rows of a running query: eddy
// counters plus a tab-separated per-module table.
func (c *Client) ExplainQuery(qid int) ([]string, error) {
	return c.cmdRows(fmt.Sprintf("EXPLAIN %d", qid))
}

// Top returns the engine-wide hot-module table, capped at n rows (n < 1
// returns all modules).
func (c *Client) Top(n int) ([]string, error) {
	if n < 1 {
		return c.cmdRows("TOP")
	}
	return c.cmdRows(fmt.Sprintf("TOP %d", n))
}

// Stats returns a query's runtime counters as display rows.
func (c *Client) Stats(qid int) ([]string, error) {
	return c.cmdRows(fmt.Sprintf("STATS %d", qid))
}

// Metrics returns the engine's metric registry snapshot, one
// "<series> <value>" row per metric.
func (c *Client) Metrics() ([]string, error) {
	return c.cmdRows("METRICS")
}

// Trace returns the sampled tuple-lineage traces recorded for a query
// (requires the server engine to run with tracing enabled).
func (c *Client) Trace(qid int) ([]string, error) {
	return c.cmdRows(fmt.Sprintf("TRACE %d", qid))
}

// Info returns the engine's effective execution configuration (worker
// count, batch size, EOs, queue capacity, shedding/spooling flags).
func (c *Client) Info() ([]string, error) {
	return c.cmdRows("INFO")
}
