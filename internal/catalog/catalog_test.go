package catalog

import (
	"sync"
	"testing"

	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

func schema() *tuple.Schema {
	return tuple.NewSchema("s",
		tuple.Column{Name: "ts", Kind: tuple.KindTime},
		tuple.Column{Name: "x", Kind: tuple.KindInt})
}

func TestCreateLookupDrop(t *testing.T) {
	c := New()
	e, err := c.CreateStream("s", schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != Stream || e.TimeKind != window.Physical {
		t.Errorf("entry = %+v", e)
	}
	got, err := c.Lookup("s")
	if err != nil || got != e {
		t.Errorf("lookup = %v, %v", got, err)
	}
	if _, err := c.CreateStream("s", schema(), 0); err == nil {
		t.Error("duplicate create succeeded")
	}
	if err := c.Drop("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("s"); err == nil {
		t.Error("lookup after drop succeeded")
	}
	if err := c.Drop("s"); err == nil {
		t.Error("double drop succeeded")
	}
}

func TestLogicalTimeDefault(t *testing.T) {
	c := New()
	e, _ := c.CreateStream("s", schema(), -1)
	if e.TimeKind != window.Logical {
		t.Errorf("time kind = %s", e.TimeKind)
	}
}

func TestTables(t *testing.T) {
	c := New()
	e, err := c.CreateTable("t", schema())
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != Table || e.Kind.String() != "TABLE" {
		t.Errorf("kind = %v", e.Kind)
	}
}

func TestListSorted(t *testing.T) {
	c := New()
	c.CreateStream("zeta", schema(), 0)
	c.CreateStream("alpha", schema(), 0)
	c.CreateTable("mid", schema())
	names := []string{}
	for _, e := range c.List() {
		names = append(names, e.Name)
	}
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("list = %v", names)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			c.CreateStream(name, schema(), 0)
			c.Lookup(name)
			c.List()
		}(i)
	}
	wg.Wait()
	if len(c.List()) != 8 {
		t.Errorf("entries = %d", len(c.List()))
	}
}
