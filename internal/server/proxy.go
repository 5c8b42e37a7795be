package server

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"telegraphcq/internal/chaos"
)

// Proxy is the cursor-multiplexing service of Fig. 5: many lightweight
// clients share one upstream connection to the postmaster. Each
// connection may hold multiple open cursors; the proxy forwards commands
// serially and routes asynchronous push rows ("ROW q<id> ...") back to
// whichever downstream client subscribed to that query id. If a
// deployment outgrows the per-connection cursor limit, it runs several
// proxies (§4.2.1).
//
// The upstream hop is the one network link downstream clients cannot see,
// so the proxy owns its fault handling: a command that fails with a
// connection error (anything other than a server-reported "ERR") is
// retried after redialing the postmaster with exponential backoff, and
// push subscriptions are re-established on the fresh connection.
type Proxy struct {
	opts       proxyOptions
	serverAddr string
	ln         net.Listener
	wg         sync.WaitGroup
	closed     atomic.Bool
	retried    atomic.Int64

	upMu     sync.Mutex
	upstream *Client

	mu     sync.Mutex
	owners map[int]*proxyClient // qid -> subscribing downstream
	active map[*proxyClient]bool
}

// proxyOptions tunes the proxy's upstream fault handling.
type proxyOptions struct {
	// Clock times the reconnect backoff; nil defaults to the real clock.
	Clock chaos.Clock
	// Retries is how many redial-and-retry rounds follow a failed command
	// before the error is surfaced downstream (default 3).
	Retries int
	// Backoff is the first retry's delay; it doubles per round (default 10ms).
	Backoff time.Duration
	// Chaos, when set, injects Reset faults that sever the upstream
	// connection just before a command, exercising the retry path.
	Chaos *chaos.Site
}

// NewProxy connects to serverAddr and listens for clients on listenAddr
// with default fault handling.
func NewProxy(serverAddr, listenAddr string) (*Proxy, error) {
	return newProxyOpts(serverAddr, listenAddr, proxyOptions{})
}

// newProxyOpts is NewProxy with explicit retry/backoff/injection options.
func newProxyOpts(serverAddr, listenAddr string, opts proxyOptions) (*Proxy, error) {
	if opts.Clock == nil {
		opts.Clock = chaos.Real()
	}
	if opts.Retries == 0 {
		opts.Retries = 3
	}
	if opts.Backoff == 0 {
		opts.Backoff = 10 * time.Millisecond
	}
	up, err := Dial(serverAddr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		if cerr := up.Close(); cerr != nil {
			log.Printf("proxy: closing upstream after listen failure: %v", cerr)
		}
		return nil, fmt.Errorf("proxy: %w", err)
	}
	p := &Proxy{
		opts:       opts,
		serverAddr: serverAddr,
		upstream:   up,
		ln:         ln,
		owners:     make(map[int]*proxyClient),
		active:     make(map[*proxyClient]bool),
	}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr returns the proxy's client-facing address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Retries returns how many upstream redial-and-retry rounds have run.
func (p *Proxy) Retries() int64 { return p.retried.Load() }

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		pc := &proxyClient{proxy: p, conn: conn, w: bufio.NewWriter(conn)}
		p.mu.Lock()
		p.active[pc] = true
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			pc.serve()
		}()
	}
}

// Close shuts the proxy down, disconnecting downstream clients.
func (p *Proxy) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	err := p.ln.Close()
	p.mu.Lock()
	for pc := range p.active {
		if cerr := pc.conn.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
	p.upMu.Lock()
	if p.upstream != nil {
		if cerr := p.upstream.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}
	p.upMu.Unlock()
	return err
}

// client returns the current upstream connection (nil after a failed redial).
func (p *Proxy) client() *Client {
	p.upMu.Lock()
	defer p.upMu.Unlock()
	return p.upstream
}

// isServerErr reports whether the server itself answered (with ERR): such
// errors are definitive and must not be retried, unlike transport failures.
func isServerErr(err error) bool {
	return err != nil && strings.HasPrefix(err.Error(), "server:")
}

// withRetry runs fn against the upstream client, redialing with
// exponential backoff when the connection — not the server — fails.
func (p *Proxy) withRetry(fn func(up *Client) error) error {
	backoff := p.opts.Backoff
	var err error
	for attempt := 0; ; attempt++ {
		up := p.client()
		if up == nil {
			err = fmt.Errorf("proxy: upstream not connected")
		} else {
			if p.opts.Chaos != nil && p.opts.Chaos.Next() == chaos.Reset {
				// Injected reset: sever the socket so this attempt fails
				// exactly like a mid-command network fault. The close
				// outcome is irrelevant — the point is the broken socket.
				_ = up.conn.Close()
			}
			err = fn(up)
			if err == nil || isServerErr(err) {
				return err
			}
		}
		if attempt >= p.opts.Retries || p.closed.Load() {
			return err
		}
		p.retried.Add(1)
		p.opts.Clock.Sleep(backoff)
		backoff *= 2
		p.redial(up)
	}
}

// redial replaces a stale upstream connection and restores push delivery
// for every subscription the old connection carried: the server keeps the
// query state, only the transport died.
func (p *Proxy) redial(stale *Client) {
	p.upMu.Lock()
	defer p.upMu.Unlock()
	if p.upstream != stale || p.closed.Load() {
		return // a concurrent command already reconnected
	}
	if stale != nil {
		if cerr := stale.Close(); cerr != nil {
			log.Printf("proxy: closing stale upstream: %v", cerr)
		}
	}
	up, err := Dial(p.serverAddr)
	if err != nil {
		p.upstream = nil
		return
	}
	p.mu.Lock()
	qids := make([]int, 0, len(p.owners))
	for qid := range p.owners {
		qids = append(qids, qid)
	}
	p.mu.Unlock()
	for _, qid := range qids {
		if ch, serr := up.Subscribe(qid, 1024); serr == nil {
			go p.pump(qid, ch)
		}
	}
	p.upstream = up
}

// pump relays push rows from an upstream subscription channel to whichever
// downstream client currently owns the query id. It exits when the channel
// closes (the upstream connection died or the proxy shut down).
func (p *Proxy) pump(qid int, ch <-chan string) {
	for csv := range ch {
		p.mu.Lock()
		owner := p.owners[qid]
		p.mu.Unlock()
		if owner != nil {
			owner.send(fmt.Sprintf("ROW q%d %s", qid, csv))
		}
	}
}

func (p *Proxy) retryCmd(line string) (string, error) {
	var reply string
	err := p.withRetry(func(up *Client) error {
		var e error
		reply, e = up.cmd(line)
		return e
	})
	return reply, err
}

func (p *Proxy) retryRows(line string) ([]string, error) {
	var rows []string
	err := p.withRetry(func(up *Client) error {
		var e error
		rows, e = up.cmdRows(line)
		return e
	})
	return rows, err
}

type proxyClient struct {
	proxy *Proxy
	conn  net.Conn
	wmu   sync.Mutex
	w     *bufio.Writer
	werr  error // first write error, guarded by wmu; logged once
	subs  []int
}

func (pc *proxyClient) send(line string) {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	pc.w.WriteString(line)
	pc.w.WriteByte('\n')
	if err := pc.w.Flush(); err != nil && pc.werr == nil {
		pc.werr = err
		log.Printf("proxy: client %s write: %v", pc.conn.RemoteAddr(), err)
	}
}

func (pc *proxyClient) serve() {
	defer func() {
		if err := pc.conn.Close(); err != nil {
			log.Printf("proxy: client %s close: %v", pc.conn.RemoteAddr(), err)
		}
	}()
	defer pc.release()
	sc := bufio.NewScanner(pc.conn)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "QUIT") {
			pc.send("OK bye")
			return
		}
		pc.forward(line)
	}
}

func (pc *proxyClient) release() {
	pc.proxy.mu.Lock()
	defer pc.proxy.mu.Unlock()
	for _, qid := range pc.subs {
		delete(pc.proxy.owners, qid)
	}
	delete(pc.proxy.active, pc)
}

// forward relays one command upstream, translating the client API calls
// back into raw replies for the downstream connection.
func (pc *proxyClient) forward(line string) {
	cmd := strings.ToUpper(firstWord(line))
	switch cmd {
	case "FETCH", "LIST":
		rows, err := pc.proxy.retryRows(line)
		if err != nil {
			pc.send("ERR " + trimServerErr(err))
			return
		}
		for _, r := range rows {
			pc.send("ROW . " + r)
		}
		pc.send("END")
	case "SUBSCRIBE":
		fields := strings.Fields(line)
		if len(fields) != 2 {
			pc.send("ERR bad query id")
			return
		}
		qid, err := strconv.Atoi(fields[1])
		if err != nil {
			pc.send("ERR bad query id")
			return
		}
		var ch <-chan string
		err = pc.proxy.withRetry(func(up *Client) error {
			c, e := up.Subscribe(qid, 1024)
			if e == nil {
				ch = c
			}
			return e
		})
		if err != nil {
			pc.send("ERR " + trimServerErr(err))
			return
		}
		pc.proxy.mu.Lock()
		pc.proxy.owners[qid] = pc
		pc.proxy.mu.Unlock()
		pc.subs = append(pc.subs, qid)
		go pc.proxy.pump(qid, ch)
		pc.send(fmt.Sprintf("OK subscribed %d", qid))
	default:
		reply, err := pc.proxy.retryCmd(line)
		if err != nil {
			pc.send("ERR " + trimServerErr(err))
			return
		}
		if reply == "" {
			pc.send("OK")
		} else {
			pc.send("OK " + reply)
		}
	}
}

func trimServerErr(err error) string {
	return strings.TrimPrefix(err.Error(), "server: ")
}
