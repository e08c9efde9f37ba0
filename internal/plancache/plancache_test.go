package plancache

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"certsql/internal/schema"
)

func key(i int) Key { return Key{SQL: fmt.Sprintf("SELECT %d", i)} }

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
	sch := schema.New()
	base := Key{SQL: "SELECT a FROM t", Schema: sch, Params: "", Options: ""}
	want := &Plan{Mode: ModeCertain}
	c.Put(base, want)
	for name, k := range map[string]Key{
		"schema":  {SQL: base.SQL, Schema: schema.New()},
		"params":  {SQL: base.SQL, Schema: sch, Params: "x=1"},
		"options": {SQL: base.SQL, Schema: sch, Options: "naive"},
		"sql":     {SQL: "SELECT b FROM t", Schema: sch},
	} {
		if _, ok := c.Get(k); ok {
			t.Errorf("key differing in %s hit the cached plan", name)
		}
	}
	if p, ok := c.Get(base); !ok || p != want {
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

// TestPlanImmutableAfterPut: a Plan carries its rewrites from before
// Put and has no methods and no lock, so nothing can fill or replace a
// slot afterwards; concurrent Gets all see the very rewrites that were
// put (run under -race, any later write would show).
func TestPlanImmutableAfterPut(t *testing.T) {
	if n := reflect.TypeOf(&Plan{}).NumMethod(); n != 0 {
		t.Fatalf("Plan has %d methods; a cached plan must be plain data", n)
	}
	c := New(0)
	orig, plus := &Optimized{}, &Optimized{}
	c.Put(key(1), &Plan{Mode: ModeCertain, OrigOpt: orig, PlusOpt: plus})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, ok := c.Get(key(1))
			if !ok || p.OrigOpt != orig || p.PlusOpt != plus || p.StarOpt != nil {
				t.Errorf("Get returned other rewrites than were put: %+v", p)
			}
		}()
	}
	wg.Wait()
}
