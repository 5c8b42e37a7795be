package main

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"telegraphcq"
)

// door is a front door to an engine under test. The phase logic in run.go
// is written against it once; wireDoor and embeddedDoor differ in how a
// tuple gets in and a row gets out.
type door interface {
	// open starts the engine, creates the streams, registers the queries
	// and starts consuming their results into the verifier.
	open() error
	// feedClosed feeds inputs [from, to) closed loop and returns once the
	// engine has accepted them all.
	feedClosed(from, to int, parent int) error
	// feedPaced feeds inputs [from, to) open loop on the schedule fixed by
	// t0 and returns each send's lateness in ms.
	feedPaced(from, to int, t0 time.Time, parent int) ([]float64, error)
	// feedFailures counts feeds the engine refused.
	feedFailures() int64
	// resultCounts returns the engine-side result count of every query.
	resultCounts() ([]int64, error)
	// stats and peakRSSMB read the process hosting the engine; hostCPUNs
	// is the cheap subset of stats.
	stats() (hostStats, error)
	hostCPUNs() int64
	peakRSSMB() (float64, error)
	// scrape sums the engine metric series whose name starts with prefix.
	scrape(prefix string) (float64, error)
	close()
}

// embeddedDoor drives a workload through telegraphcq.Open(Config{}).
type embeddedDoor struct {
	in *input
	v  *verifier
	tr *tracer

	db      *telegraphcq.DB
	queries []*telegraphcq.Query
	failed  atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

func (d *embeddedDoor) open() error {
	w := d.in.w
	d.db = telegraphcq.Open(telegraphcq.Config{})
	d.stop = make(chan struct{})
	for _, s := range w.streams {
		if err := d.db.CreateStream(s.name, s.cols, s.timeCol); err != nil {
			return err
		}
	}
	for _, text := range w.queries(d.in.ph.total) {
		q, err := d.db.Register(text)
		if err != nil {
			return err
		}
		d.queries = append(d.queries, q)
	}
	for _, qi := range d.v.exp.subscribed {
		if w.push {
			d.consumePush(qi)
		} else {
			d.consumePull(qi)
		}
	}
	return nil
}

// consumePush subscribes to query qi with the buffer tcqd gives a
// SUBSCRIBE, and verifies rows as they arrive.
func (d *embeddedDoor) consumePush(qi int) {
	ch := d.queries[qi].Subscribe(1024)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			select {
			case r := <-ch:
				d.observe(qi, r, clk.Now())
			case <-d.stop:
				return
			}
		}
	}()
}

// consumePull fetches query qi's cursor every pollEvery ms.
func (d *embeddedDoor) consumePull(qi int) {
	cur := d.queries[qi].Cursor()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		poll(d.stop, func() bool {
			id := d.tr.begin("client.fetch", 0)
			rows, err := cur.Fetch()
			d.tr.end(id, len(rows))
			if err != nil {
				d.v.mu.Lock()
				d.v.fail("Cursor.Fetch: %v", err)
				d.v.mu.Unlock()
				return false
			}
			now := clk.Now()
			for _, r := range rows {
				d.observe(qi, r, now)
			}
			return true
		})
	}()
}

// observe converts a Row by the workload's result schema.
func (d *embeddedDoor) observe(qi int, r telegraphcq.Row, recv time.Time) {
	out := row{q: qi}
	if d.in.w.windowed {
		// sym, AVG(price), MAX(born), tagged with the window's t.
		out.t = r.T
		out.i = [4]int64{r.Int(0), 0, r.Int(2)}
		out.f = r.Float(1)
	} else {
		for c := 0; c < r.Len() && c < len(out.i); c++ {
			out.i[c] = r.Int(c)
		}
	}
	d.v.observe(&out, recv)
}

func (d *embeddedDoor) feedOne(i int) {
	in := d.in
	name := in.w.streams[in.recs[i].stream].name
	if err := d.db.Feed(name, in.vals[i*in.stride:(i+1)*in.stride]...); err != nil {
		d.failed.Add(1)
	}
}

func (d *embeddedDoor) feedClosed(from, to int, parent int) error {
	// One span per call: a span per Feed would cost more than the Feed.
	id := d.tr.begin("client.feed_batch", parent)
	for i := from; i < to; i++ {
		d.feedOne(i)
	}
	d.tr.end(id, to-from)
	return nil
}

func (d *embeddedDoor) feedPaced(from, to int, t0 time.Time, parent int) ([]float64, error) {
	return pace(from, to, t0, d.in.ph.intervalNs, func(i, due int) error {
		id := d.tr.begin("client.feed_batch", parent)
		for j := i; j < due; j++ {
			d.feedOne(j)
		}
		d.tr.end(id, due-i)
		return nil
	})
}

func (d *embeddedDoor) feedFailures() int64 { return d.failed.Load() }

func (d *embeddedDoor) resultCounts() ([]int64, error) {
	out := make([]int64, len(d.queries))
	for i, q := range d.queries {
		out[i] = q.Results()
	}
	return out, nil
}

func (d *embeddedDoor) stats() (hostStats, error) { return selfStats(), nil }
func (d *embeddedDoor) hostCPUNs() int64          { return selfCPUNs() }
func (d *embeddedDoor) peakRSSMB() (float64, error) {
	return procPeakRSSMB(os.Getpid())
}

func (d *embeddedDoor) scrape(prefix string) (float64, error) {
	var total float64
	for _, s := range d.db.Metrics().Snapshot() {
		if strings.HasPrefix(s.Name, prefix) {
			total += s.Value
		}
	}
	return total, nil
}

func (d *embeddedDoor) close() {
	if d.stop != nil {
		close(d.stop)
		d.wg.Wait()
	}
	if d.db != nil {
		d.db.Close()
	}
}

func newDoor(in *input, v *verifier, tr *tracer, tcqdBin string) door {
	if in.w.wire {
		return &wireDoor{bin: tcqdBin, in: in, v: v, tr: tr}
	}
	return &embeddedDoor{in: in, v: v, tr: tr}
}
