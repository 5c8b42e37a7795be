// Package catalog maintains the metadata of streams and tables — the
// role PostgreSQL's system catalog plays in the TelegraphCQ front end
// (Fig. 4–5). The catalog is shared by every connection's parser/planner,
// so it is safe for concurrent use.
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// SourceKind distinguishes unbounded streams from static tables.
type SourceKind uint8

// Source kinds.
const (
	Stream SourceKind = iota
	Table
)

// String names the kind.
func (k SourceKind) String() string {
	if k == Stream {
		return "STREAM"
	}
	return "TABLE"
}

// Entry describes one registered relation.
type Entry struct {
	Name   string
	Kind   SourceKind
	Schema *tuple.Schema
	// TimeCol is the column carrying the stream's application timestamp,
	// or -1 to use arrival sequence numbers (logical time, §4.1.1).
	TimeCol int
	// TimeKind is the default notion of time for windows on this stream.
	TimeKind window.TimeKind
}

// Catalog is the registry. The zero value is unusable; use New.
type Catalog struct {
	mu      sync.RWMutex
	entries map[string]*Entry
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{entries: make(map[string]*Entry)}
}

// CreateStream registers a stream. timeCol < 0 selects logical time.
func (c *Catalog) CreateStream(name string, schema *tuple.Schema, timeCol int) (*Entry, error) {
	kind := window.Physical
	if timeCol < 0 {
		kind = window.Logical
	}
	return c.create(&Entry{Name: name, Kind: Stream, Schema: schema,
		TimeCol: timeCol, TimeKind: kind})
}

// CreateTable registers a static table.
func (c *Catalog) CreateTable(name string, schema *tuple.Schema) (*Entry, error) {
	return c.create(&Entry{Name: name, Kind: Table, Schema: schema, TimeCol: -1})
}

func (c *Catalog) create(e *Entry) (*Entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[e.Name]; dup {
		return nil, fmt.Errorf("catalog: relation %q already exists", e.Name)
	}
	c.entries[e.Name] = e
	return e, nil
}

// Lookup finds a relation by name.
func (c *Catalog) Lookup(name string) (*Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("catalog: relation %q not found", name)
	}
	return e, nil
}

// Drop removes a relation.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; !ok {
		return fmt.Errorf("catalog: relation %q not found", name)
	}
	delete(c.entries, name)
	return nil
}

// List returns all entries sorted by name.
func (c *Catalog) List() []*Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Entry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
