package server

import (
	"fmt"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
)

// TestProxyRetriesInjectedResets severs the proxy's upstream connection
// with seeded Reset faults and checks that commands still succeed through
// redial-with-backoff, push subscriptions survive the reconnects, and the
// retry counter records the recoveries.
func TestProxyRetriesInjectedResets(t *testing.T) {
	_, pm := startServer(t)
	inj := chaos.New(chaos.Config{Seed: 7, Reset: 0.15}, nil)
	proxy, err := newProxyOpts(pm.Addr(), "127.0.0.1:0", proxyOptions{
		Retries: 4,
		Backoff: time.Millisecond,
		Chaos:   inj.Site("proxy/upstream"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c := dial(t, proxy.Addr())
	if err := c.CreateStream("s", "x INT", ""); err != nil {
		t.Fatal(err)
	}
	qid, err := c.Query(`SELECT x FROM s WHERE x > 5`)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := c.Subscribe(qid, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Enough commands that resets at 15% are all but certain to fire; each
	// Feed must succeed despite the severed upstream it may land on.
	const feeds = 60
	for i := 0; i < feeds; i++ {
		if err := c.Feed("s", fmt.Sprintf("%d", i)); err != nil {
			t.Fatalf("feed %d failed through retrying proxy: %v\ntrace:\n%s",
				i, err, inj.TraceString())
		}
	}
	if proxy.Retries() == 0 {
		t.Fatalf("no upstream retries recorded; resets not exercised\ntrace:\n%s",
			inj.TraceString())
	}

	// Push rows keep flowing across the reconnects (the re-subscribe on
	// redial). Rows pushed while the upstream is briefly down are shed by
	// design, so only a lower bound is deterministic: the rows fed after
	// the last reconnect all arrive — require at least one.
	select {
	case <-ch:
	case <-chaos.Real().After(10 * time.Second):
		t.Fatalf("no push rows after %d feeds across reconnects\ntrace:\n%s",
			feeds, inj.TraceString())
	}

	// Server-reported errors must surface immediately, not be retried:
	// the retry counter stays put for a definitive ERR.
	before := proxy.Retries()
	if _, err := c.Fetch(9999); err == nil {
		t.Fatal("fetch of unknown query succeeded")
	}
	// A Reset may still fire on this one command; allow its recovery but
	// not a retry storm from treating ERR as a connection failure.
	if got := proxy.Retries() - before; got > 4 {
		t.Errorf("server error drove %d retries; ERR replies must not be retried", got)
	}
}
