package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer: its name, start and
// end (ns since the tracer was created), the span that caused it (0 = none)
// and a count taken at the same boundary (tuples fed, rows received).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	// off pauses recording: the traced sat phase alternates slices with
	// spans on and off so the cost of recording is itself measured.
	off      atomic.Bool
	mu       sync.Mutex
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: clk.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil || t.off.Load() {
		return 0
	}
	now := int64(clk.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes span id, recording the count observed at its boundary.
func (t *tracer) end(id, count int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(clk.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Count = count
	t.mu.Unlock()
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string `json:"name"`
	Calls   int    `json:"calls"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are merged,
// so two concurrent children do not subtract the same time twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		curStart, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			ks, ke := spans[k].Start, spans[k].End
			if ks < s.Start {
				ks = s.Start
			}
			if ke > s.End {
				ke = s.End
			}
			if ke <= ks {
				continue
			}
			if ks > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = ks, ke
			} else if ke > curEnd {
				curEnd = ke
			}
		}
		covered += curEnd - curStart
		self[i] -= covered
	}
	return self
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := map[string]*spanSummary{}
	var order []string
	for i, s := range spans {
		sum, ok := byName[s.Name]
		if !ok {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
			order = append(order, s.Name)
		}
		sum.Calls++
		sum.Count += s.Count
		sum.TotalNs += s.End - s.Start
		sum.SelfNs += self[i]
	}
	out := make([]spanSummary, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// total returns the summed duration and count of the spans named name.
func (t *tracer) total(name string) (ns int64, count int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
			count += s.Count
		}
	}
	return ns, count
}

// write stores the trace as <dir>/trace-<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string        `json:"workload"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{t.workload, summarize(t.spans), t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
