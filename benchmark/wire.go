package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// tcqdProc is one tcqd subprocess started at default flags: only the two
// listen addresses are set (to port 0), which are deployment settings.
type tcqdProc struct {
	cmd      *exec.Cmd
	addr     string // wire protocol
	httpAddr string // /metrics and /debug/pprof
	drained  chan struct{}
	// stderr keeps what tcqd logged. It is shown only when tcqd died on its
	// own: a clean shutdown logs an accept error on the closed HTTP listener
	// every time, which is noise.
	stderr bytes.Buffer
}

var (
	reListen  = regexp.MustCompile(`listening on (\S+)`)
	reMetrics = regexp.MustCompile(`metrics on http://(\S+)/metrics`)
)

func startTcqd(bin string) (*tcqdProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-http", "127.0.0.1:0")
	p := &tcqdProc{cmd: cmd, drained: make(chan struct{})}
	cmd.Stderr = &p.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tcqd: %w", err)
	}
	ready := make(chan error, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(out)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if m := reListen.FindStringSubmatch(line); m != nil {
				p.addr = m[1]
			}
			if m := reMetrics.FindStringSubmatch(line); m != nil {
				p.httpAddr = m[1]
			}
			if !announced && p.addr != "" && p.httpAddr != "" {
				announced = true
				ready <- nil
			}
		}
		if !announced {
			ready <- fmt.Errorf("tcqd exited before announcing its addresses")
		}
	}()
	select {
	case err := <-ready:
		if err != nil {
			p.stop()
			return nil, err
		}
	case <-clk.After(20 * time.Second):
		p.stop()
		return nil, fmt.Errorf("tcqd did not announce its addresses within 20s")
	}
	return p, nil
}

// stop terminates tcqd and waits until it has exited.
func (p *tcqdProc) stop() {
	died := p.cmd.Process.Signal(syscall.SIGTERM) != nil // already gone: it was not us
	done := make(chan struct{})
	go func() {
		<-p.drained
		_ = p.cmd.Wait() // exit status of a terminated child carries nothing
		close(done)
	}()
	select {
	case <-done:
	case <-clk.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
	if died {
		fmt.Fprintf(os.Stderr, "tcqd exited on its own; its stderr:\n%s", p.stderr.String())
	}
}

// errSlot holds the first error a background goroutine hit.
type errSlot struct {
	mu  sync.Mutex
	err error
}

func (s *errSlot) Store(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

func (s *errSlot) Load() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// feedConn is the pipelined feeder connection: one goroutine writes FEED
// lines, another counts the "OK fed" replies.
type feedConn struct {
	conn   net.Conn
	tr     *tracer
	acked  atomic.Int64  // replies received; reply n answers input n-1
	failed atomic.Int64  // ERR replies
	signal chan struct{} // poked (non-blocking) whenever acked advances
	rerr   errSlot       // reader's terminal error
}

func dialFeed(addr string, tr *tracer) (*feedConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	f := &feedConn{conn: conn, tr: tr, signal: make(chan struct{}, 1)}
	go f.readLoop()
	return f, nil
}

func (f *feedConn) readLoop() {
	r := bufio.NewReaderSize(f.conn, 256*1024)
	var batch int64
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			f.rerr.Store(err)
			f.poke()
			return
		}
		if !bytes.HasPrefix(line, []byte("OK")) {
			f.failed.Add(1)
		}
		batch++
		if r.Buffered() == 0 || batch >= 256 {
			f.acked.Add(batch)
			batch = 0
			f.poke()
		}
	}
}

func (f *feedConn) poke() {
	select {
	case f.signal <- struct{}{}:
	default:
	}
}

func (f *feedConn) readErr() error {
	if err := f.rerr.Load(); err != nil {
		return fmt.Errorf("feed connection: %w", err)
	}
	return nil
}

// awaitAcks blocks until n replies have arrived.
func (f *feedConn) awaitAcks(n int, parent int) error {
	id := f.tr.begin("client.await_acks", parent)
	defer f.tr.end(id, 0)
	deadline := clk.After(60 * time.Second)
	for int(f.acked.Load()) < n {
		if err := f.readErr(); err != nil {
			return err
		}
		select {
		case <-f.signal:
		case <-deadline:
			return fmt.Errorf("feed: %d of %d FEEDs unacknowledged after 60s", n-int(f.acked.Load()), n)
		}
	}
	return nil
}

// feedClosed sends inputs [from, to) keeping at most inflightCap FEEDs
// unacknowledged, and returns once all are acknowledged.
func (f *feedConn) feedClosed(in *input, from, to int, parent int) error {
	sent := from
	for sent < to {
		room := inflightCap - (sent - int(f.acked.Load()))
		if room < 64 && room < to-sent {
			// Wait for a worthwhile batch rather than trickle single lines.
			if err := f.awaitAcks(sent-inflightCap+64, parent); err != nil {
				return err
			}
			continue
		}
		n := room
		if n > to-sent {
			n = to - sent
		}
		id := f.tr.begin("client.feed_batch", parent)
		_, err := f.conn.Write(in.lines[in.off[sent]:in.off[sent+n]])
		f.tr.end(id, n)
		if err != nil {
			return fmt.Errorf("feed: %w", err)
		}
		sent += n
	}
	return f.awaitAcks(to, parent)
}

// feedPaced sends inputs [from, to) open loop: input i is due at
// t0 + (i-from)*interval whatever the engine is doing. It returns how late
// each send completed (ms).
func (f *feedConn) feedPaced(in *input, from, to int, t0 time.Time, parent int) ([]float64, error) {
	return pace(from, to, t0, in.ph.intervalNs, func(i, due int) error {
		id := f.tr.begin("client.feed_batch", parent)
		_, err := f.conn.Write(in.lines[in.off[i]:in.off[due]])
		f.tr.end(id, due-i)
		return err
	})
}

// pace drives an open-loop schedule: send(i, due) must deliver inputs
// [i, due), all of which are due. The returned lags are send completion
// minus scheduled time, per input, in ms.
func pace(from, to int, t0 time.Time, intervalNs int64, send func(i, due int) error) ([]float64, error) {
	lags := make([]float64, 0, to-from)
	i := from
	for i < to {
		now := int64(clk.Since(t0))
		due := from + int(now/intervalNs) + 1
		if now < 0 {
			due = from
		}
		if due > to {
			due = to
		}
		if due <= i {
			clk.Sleep(time.Duration(int64(i-from)*intervalNs - now))
			continue
		}
		if err := send(i, due); err != nil {
			return lags, err
		}
		done := int64(clk.Since(t0))
		for j := i; j < due; j++ {
			lags = append(lags, float64(done-int64(j-from)*intervalNs)/1e6)
		}
		i = due
	}
	return lags, nil
}

func (f *feedConn) close() {
	_, _ = io.WriteString(f.conn, "QUIT\n") // best effort: the close below ends the session anyway
	_ = f.conn.Close()
}

// consConn is the consumer connection: it registers the query, receives
// its rows (pushed, or fetched by polling) and asks for engine-side counts.
// A reader goroutine hands result rows straight to the verifier and
// forwards command replies to whoever issued the command.
type consConn struct {
	conn net.Conn
	v    *verifier
	tr   *tracer

	cmdMu   sync.Mutex // one command in flight
	replies chan string
	// fetching is set while a FETCH is in flight: its "ROW . " lines are
	// result rows for the verifier, not reply rows for the caller.
	fetching atomic.Bool
	fetched  atomic.Int64
	rerr     errSlot

	stopPoll chan struct{}
	pollDone chan struct{}
}

func dialConsumer(addr string, v *verifier, tr *tracer) (*consConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// Buffered well past one reply: the reader must never block on a
	// caller that is still writing its command.
	c := &consConn{conn: conn, v: v, tr: tr, replies: make(chan string, 4096)}
	go c.readLoop()
	return c, nil
}

func (c *consConn) readLoop() {
	defer close(c.replies)
	r := bufio.NewReaderSize(c.conn, 256*1024)
	spanID, rows := 0, 0
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			c.rerr.Store(err)
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.HasPrefix(line, []byte("ROW q")):
			if spanID == 0 {
				spanID = c.tr.begin("client.recv_rows", 0)
			}
			rows++
			if sp := bytes.IndexByte(line, ' '); sp >= 0 {
				if sp2 := bytes.IndexByte(line[sp+1:], ' '); sp2 >= 0 {
					c.observeCSV(line[sp+1+sp2+1:])
				}
			}
		case c.fetching.Load() && bytes.HasPrefix(line, []byte("ROW . ")):
			c.fetched.Add(1)
			c.observeCSV(line[len("ROW . "):])
		default:
			c.replies <- string(line)
		}
		if spanID != 0 && r.Buffered() == 0 {
			c.tr.end(spanID, rows)
			spanID, rows = 0, 0
		}
	}
}

// observeCSV parses an all-integer result row and hands it to the verifier.
func (c *consConn) observeCSV(csv []byte) {
	var r row
	n := 0
	for len(csv) > 0 && n < len(r.i) {
		end := bytes.IndexByte(csv, ',')
		field := csv
		if end >= 0 {
			field, csv = csv[:end], csv[end+1:]
		} else {
			csv = nil
		}
		v, err := strconv.ParseInt(string(field), 10, 64)
		if err != nil {
			c.v.mu.Lock()
			c.v.fail("unparsable row field %q", field)
			c.v.mu.Unlock()
			return
		}
		r.i[n] = v
		n++
	}
	c.v.observe(&r, clk.Now())
}

// cmd sends one command and returns its reply lines up to and including the
// terminal OK/END line; an ERR reply is an error.
func (c *consConn) cmd(line string) ([]string, error) {
	c.cmdMu.Lock()
	defer c.cmdMu.Unlock()
	return c.cmdLocked(line)
}

func (c *consConn) cmdLocked(line string) ([]string, error) {
	if _, err := io.WriteString(c.conn, line+"\n"); err != nil {
		return nil, fmt.Errorf("%s: %w", firstWord(line), err)
	}
	var out []string
	timeout := clk.After(60 * time.Second)
	for {
		select {
		case reply, ok := <-c.replies:
			if !ok {
				return nil, fmt.Errorf("%s: connection closed (%v)", firstWord(line), c.rerr.Load())
			}
			switch {
			case strings.HasPrefix(reply, "ERR"):
				return nil, fmt.Errorf("%s: server: %s", firstWord(line), reply)
			case reply == "END" || strings.HasPrefix(reply, "OK"):
				return append(out, reply), nil
			}
			out = append(out, reply)
		case <-timeout:
			return nil, fmt.Errorf("%s: no reply within 60s", firstWord(line))
		}
	}
}

func firstWord(s string) string {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i]
	}
	return s
}

// fetch issues one FETCH; its rows go to the verifier as they are read.
func (c *consConn) fetch(qid int) error {
	c.cmdMu.Lock()
	defer c.cmdMu.Unlock()
	id := c.tr.begin("client.fetch", 0)
	before := c.fetched.Load()
	c.fetching.Store(true)
	_, err := c.cmdLocked(fmt.Sprintf("FETCH %d", qid))
	c.fetching.Store(false)
	c.tr.end(id, int(c.fetched.Load()-before))
	return err
}

// poll calls fn every pollEvery ms, on a fixed cadence however long fn takes,
// until stop closes or fn returns false.
func poll(stop <-chan struct{}, fn func() bool) {
	next := clk.Now()
	for {
		next = next.Add(pollEvery * time.Millisecond)
		now := clk.Now()
		if next.Before(now) {
			next = now // fn overran: skip the missed polls, as a ticker would
		}
		select {
		case <-stop:
			return
		case <-clk.After(next.Sub(now)):
		}
		if !fn() {
			return
		}
	}
}

// startPolling fetches qid every pollEvery ms until stopPolling.
func (c *consConn) startPolling(qid int) {
	c.stopPoll = make(chan struct{})
	c.pollDone = make(chan struct{})
	go func() {
		defer close(c.pollDone)
		poll(c.stopPoll, func() bool {
			if err := c.fetch(qid); err != nil {
				c.rerr.Store(err)
				return false
			}
			return true
		})
	}()
}

func (c *consConn) stopPolling() {
	if c.stopPoll != nil {
		close(c.stopPoll)
		<-c.pollDone
		c.stopPoll = nil
	}
}

var reResults = regexp.MustCompile(`results=(\d+)`)

// results returns STATS <qid>'s engine-side result count.
func (c *consConn) results(qid int) (int64, error) {
	lines, err := c.cmd(fmt.Sprintf("STATS %d", qid))
	if err != nil {
		return 0, err
	}
	for _, l := range lines {
		if m := reResults.FindStringSubmatch(l); m != nil {
			return strconv.ParseInt(m[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("STATS %d: no results= in %q", qid, lines)
}

func (c *consConn) close() {
	c.stopPolling()
	_, _ = io.WriteString(c.conn, "QUIT\n") // best effort: the close below ends the session anyway
	_ = c.conn.Close()
	for range c.replies { // until the reader exits
	}
}

// wireDoor drives a workload through a tcqd subprocess over TCP.
type wireDoor struct {
	bin  string
	in   *input
	v    *verifier
	tr   *tracer
	proc *tcqdProc
	feed *feedConn
	cons *consConn
	qid  int
}

func (d *wireDoor) open() error {
	var err error
	if d.proc, err = startTcqd(d.bin); err != nil {
		return err
	}
	w := d.in.w
	if d.cons, err = dialConsumer(d.proc.addr, d.v, d.tr); err != nil {
		return err
	}
	for _, s := range w.streams {
		if _, err := d.cons.cmd(fmt.Sprintf("CREATE STREAM %s (%s)", s.name, s.cols)); err != nil {
			return err
		}
	}
	reply, err := d.cons.cmd("QUERY " + w.queries(d.in.ph.total)[0])
	if err != nil {
		return err
	}
	if _, err := fmt.Sscanf(reply[len(reply)-1], "OK QUERYID %d", &d.qid); err != nil {
		return fmt.Errorf("QUERY: bad reply %q", reply)
	}
	if w.push {
		if _, err := d.cons.cmd(fmt.Sprintf("SUBSCRIBE %d", d.qid)); err != nil {
			return err
		}
	} else {
		d.cons.startPolling(d.qid)
	}
	d.feed, err = dialFeed(d.proc.addr, d.tr)
	return err
}

func (d *wireDoor) feedClosed(from, to int, parent int) error {
	return d.feed.feedClosed(d.in, from, to, parent)
}

func (d *wireDoor) feedPaced(from, to int, t0 time.Time, parent int) ([]float64, error) {
	lags, err := d.feed.feedPaced(d.in, from, to, t0, parent)
	if err != nil {
		return lags, err
	}
	return lags, d.feed.awaitAcks(to, parent)
}

func (d *wireDoor) feedFailures() int64 { return d.feed.failed.Load() }

func (d *wireDoor) resultCounts() ([]int64, error) {
	if err := d.cons.rerr.Load(); err != nil {
		return nil, fmt.Errorf("consumer connection: %w", err)
	}
	n, err := d.cons.results(d.qid)
	return []int64{n}, err
}

func (d *wireDoor) stats() (hostStats, error) {
	return remoteStats(d.proc.cmd.Process.Pid, d.proc.httpAddr)
}

func (d *wireDoor) hostCPUNs() int64 {
	ns, _ := procCPUNs(d.proc.cmd.Process.Pid) // 0 on a vanished process; the run fails elsewhere
	return ns
}

func (d *wireDoor) peakRSSMB() (float64, error) { return procPeakRSSMB(d.proc.cmd.Process.Pid) }

// scrape reads the /metrics series whose name starts with prefix, summed.
func (d *wireDoor) scrape(prefix string) (float64, error) {
	resp, err := http.Get("http://" + d.proc.httpAddr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var total float64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				return 0, fmt.Errorf("/metrics: %q: %w", line, err)
			}
			total += v
		}
	}
	return total, sc.Err()
}

func (d *wireDoor) close() {
	if d.feed != nil {
		d.feed.close()
	}
	if d.cons != nil {
		d.cons.close()
	}
	if d.proc != nil {
		d.proc.stop()
	}
}
