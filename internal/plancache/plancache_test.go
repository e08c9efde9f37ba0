package plancache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func key(i int) Key { return Key{SQL: fmt.Sprintf("SELECT %d", i), CatalogVersion: 1} }

func TestHitMissAndLRUEviction(t *testing.T) {
	c := New(2)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(key(1), &Plan{})
	c.Put(key(2), &Plan{})
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("key 1 missing before eviction")
	}
	// Key 2 is now least recently used; inserting key 3 must evict it.
	c.Put(key(3), &Plan{})
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("LRU entry (key 2) survived eviction")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("recently used entry (key 1) was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Len != 2 || st.Cap != 2 {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

func TestKeyComponentsDistinguishPlans(t *testing.T) {
	c := New(0)
	base := Key{SQL: "SELECT a FROM t", CatalogVersion: 1, Params: "", Options: ""}
	c.Put(base, &Plan{AnalyzerSafe: true})
	for name, k := range map[string]Key{
		"catalog version": {SQL: base.SQL, CatalogVersion: 2},
		"params":          {SQL: base.SQL, CatalogVersion: 1, Params: "x=1"},
		"options":         {SQL: base.SQL, CatalogVersion: 1, Options: "naive"},
		"sql":             {SQL: "SELECT b FROM t", CatalogVersion: 1},
	} {
		if _, ok := c.Get(k); ok {
			t.Errorf("key differing in %s hit the cached plan", name)
		}
	}
	if p, ok := c.Get(base); !ok || !p.AnalyzerSafe {
		t.Fatal("exact key lookup failed")
	}
}

func TestPutReplacesAndPurge(t *testing.T) {
	c := New(4)
	c.Put(key(1), &Plan{Columns: []string{"old"}})
	c.Put(key(1), &Plan{Columns: []string{"new"}})
	if c.Len() != 1 {
		t.Fatalf("replace grew the cache to %d entries", c.Len())
	}
	if p, _ := c.Get(key(1)); p.Columns[0] != "new" {
		t.Fatalf("replace kept the old plan: %q", p.Columns)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatal("purge left entries behind")
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("purged entry still hits")
	}
}

func TestHitRatio(t *testing.T) {
	if r := (Stats{}).HitRatio(); r != 0 {
		t.Fatalf("zero stats hit ratio = %g", r)
	}
	if r := (Stats{Hits: 3, Misses: 1}).HitRatio(); r != 0.75 {
		t.Fatalf("hit ratio = %g, want 0.75", r)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(i % 16)
				if _, ok := c.Get(k); !ok {
					c.Put(k, &Plan{})
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Len > 8 {
		t.Fatalf("cache exceeded its bound: %d entries", st.Len)
	}
}

// TestVariantBuildsOnFirstUse: a failed build leaves the slot empty,
// concurrent first uses all get the one stored variant, and a stored
// variant is returned without building again.
func TestVariantBuildsOnFirstUse(t *testing.T) {
	p := &Plan{}
	errBuild := errors.New("build failed")
	if _, err := p.Variant(&p.PlusOpt, func() (*Optimized, error) { return nil, errBuild }); !errors.Is(err, errBuild) {
		t.Fatalf("failed build: err = %v", err)
	}
	if p.PlusOpt != nil {
		t.Fatal("a failed build stored a variant")
	}
	got := make([]*Optimized, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o, err := p.Variant(&p.PlusOpt, func() (*Optimized, error) { return &Optimized{}, nil })
			if err != nil {
				t.Error(err)
			}
			got[i] = o
		}(i)
	}
	wg.Wait()
	for i, o := range got {
		if o == nil || o != got[0] {
			t.Fatalf("first use %d got variant %p, others %p", i, o, got[0])
		}
	}
	o, err := p.Variant(&p.PlusOpt, func() (*Optimized, error) { return nil, errBuild })
	if err != nil || o != got[0] {
		t.Fatalf("stored variant rebuilt: %p, %v", o, err)
	}
	if p.OrigOpt != nil || p.StarOpt != nil {
		t.Fatal("building one slot filled another")
	}
}
