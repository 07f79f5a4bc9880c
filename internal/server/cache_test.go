package server

import (
	"fmt"
	"testing"
	"time"
)

func ans(v string) []map[string]string {
	return []map[string]string{{"V": v}}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2, false)
	k := func(i int) string { return cacheKey("db", 1, "s", "fir", fmt.Sprintf("q%d", i)) }

	c.Put(k(0), "db", 1, nil, ans("a"))
	c.Put(k(1), "db", 1, nil, ans("b"))
	// Touch k0 so k1 is the LRU victim.
	if _, ok := c.Get(k(0)); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put(k(2), "db", 1, nil, ans("c"))

	if _, ok := c.Get(k(1)); ok {
		t.Error("k1 survived eviction; LRU order wrong")
	}
	if _, ok := c.Get(k(0)); !ok {
		t.Error("recently used k0 was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2/2 entries", st)
	}
}

func TestCacheInvalidateAll(t *testing.T) {
	c := newResultCache(16, false)
	c.Put(cacheKey("a", 1, "s", "fir", "q"), "a", 1, nil, ans("old"))
	c.Put(cacheKey("a", 2, "s", "fir", "q"), "a", 2, nil, ans("new"))
	c.Put(cacheKey("b", 1, "s", "fir", "q"), "b", 1, nil, ans("other"))

	// Dropping db "a" entries older than epoch 2 keeps the current epoch
	// and the unrelated database.
	if n := c.InvalidateAll("a", 2); n != 1 {
		t.Fatalf("invalidated %d entries, want 1", n)
	}
	if _, ok := c.Get(cacheKey("a", 1, "s", "fir", "q")); ok {
		t.Error("stale epoch-1 entry survived invalidation")
	}
	if _, ok := c.Get(cacheKey("a", 2, "s", "fir", "q")); !ok {
		t.Error("current-epoch entry was dropped")
	}
	if _, ok := c.Get(cacheKey("b", 1, "s", "fir", "q")); !ok {
		t.Error("entry of an unrelated database was dropped")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	// The epoch floor also gates late Puts from pre-invalidation snapshots.
	c.Put(cacheKey("a", 1, "s", "fir", "late"), "a", 1, nil, ans("stale"))
	if _, ok := c.Get(cacheKey("a", 1, "s", "fir", "late")); ok {
		t.Error("Put from a superseded snapshot was accepted")
	}
}

func TestCacheInvalidatePreds(t *testing.T) {
	c := newResultCache(16, false)
	kp := cacheKey("db", 1, "s", "fir", "p-query")
	kq := cacheKey("db", 1, "s", "fir", "q-query")
	kn := cacheKey("db", 1, "s", "fir", "no-deps")
	c.Put(kp, "db", 3, []string{"mlrel_p_l0", "mlbel_p_l1_opt"}, ans("p"))
	c.Put(kq, "db", 3, []string{"mlrel_q_l0"}, ans("q"))
	c.Put(kn, "db", 3, nil, ans("n"))

	// A write touching p's closure at epoch 4 drops the p entry and the
	// deps-unknown entry, never the q entry.
	if n := c.InvalidatePreds("db", 4, []string{"mlrel_p_l0", "mlbel_p_l0_fir"}); n != 2 {
		t.Fatalf("invalidated %d entries, want 2", n)
	}
	if _, ok := c.Get(kp); ok {
		t.Error("dependent entry survived a predicate invalidation")
	}
	if _, ok := c.Get(kn); ok {
		t.Error("deps-unknown entry must be invalidated conservatively")
	}
	if _, ok := c.Get(kq); !ok {
		t.Error("independent entry was evicted")
	}

	// A late Put computed against the pre-write snapshot (epoch 3) with a
	// touched dep is refused; with untouched deps it is accepted.
	c.Put(kp, "db", 3, []string{"mlrel_p_l0"}, ans("stale"))
	if _, ok := c.Get(kp); ok {
		t.Error("late Put with an invalidated dep was accepted")
	}
	c.Put(kp, "db", 4, []string{"mlrel_p_l0"}, ans("fresh"))
	if _, ok := c.Get(kp); !ok {
		t.Error("Put at the invalidation epoch was refused")
	}
	kq2 := cacheKey("db", 1, "s", "fir", "q2")
	c.Put(kq2, "db", 3, []string{"mlrel_q_l0"}, ans("ok"))
	if _, ok := c.Get(kq2); !ok {
		t.Error("late Put with untouched deps was refused")
	}
}

func TestCacheReset(t *testing.T) {
	c := newResultCache(16, false)
	if g := c.Generation("db"); g != 0 {
		t.Fatalf("fresh generation = %d, want 0", g)
	}
	c.Put(cacheKey("db", 0, "s", "fir", "q"), "db", 5, []string{"mlrel_p_l0"}, ans("x"))
	c.InvalidatePreds("db", 6, []string{"mlrel_p_l0"})

	if n := c.Reset("db"); n != 0 {
		t.Fatalf("reset dropped %d entries, want 0 (already invalidated)", n)
	}
	if g := c.Generation("db"); g != 1 {
		t.Fatalf("generation after reset = %d, want 1", g)
	}
	// The epoch vector is cleared: a new program's epoch-1 results must be
	// cacheable even though the old program saw higher epochs.
	key := cacheKey("db", 1, "s", "fir", "q")
	c.Put(key, "db", 1, []string{"mlrel_p_l0"}, ans("new"))
	if _, ok := c.Get(key); !ok {
		t.Error("post-reset Put at epoch 1 was refused by stale epoch vector")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(0, false)
	key := cacheKey("db", 1, "s", "fir", "q")
	c.Put(key, "db", 1, nil, ans("x"))
	if _, ok := c.Get(key); ok {
		t.Error("disabled cache returned a hit")
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want empty with 1 miss", st)
	}
}

// TestCacheKeyInjection: length prefixes keep crafted components from
// colliding across field boundaries.
func TestCacheKeyInjection(t *testing.T) {
	a := cacheKey("db", 1, "s", "fir", "q")
	b := cacheKey("db", 1, "s", "f", "irq")
	if a == b {
		t.Fatalf("distinct (mode, query) pairs collided: %q", a)
	}
}

// TestCacheStale is the brownout half of the one-map cache: with
// keepStale, an invalidated entry stays in the LRU marked stale. Each case
// starts from one entry cached at epoch 3 and invalidated at epoch 4.
func TestCacheStale(t *testing.T) {
	key := cacheKey("db", 0, "s", "fir", "q")
	cases := []struct {
		name  string
		check func(t *testing.T, c *resultCache)
	}{
		{"not served by Get, served by GetStale with its own epoch", func(t *testing.T, c *resultCache) {
			if _, ok := c.Get(key); ok {
				t.Error("Get served a stale entry")
			}
			answers, epoch, age, ok := c.GetStale(key, time.Minute)
			if !ok || answers[0]["V"] != "old" {
				t.Fatalf("GetStale = %v, %v; want the invalidated answers", answers, ok)
			}
			if epoch != 3 {
				t.Errorf("stale epoch = %d, want 3 (the epoch it was computed at)", epoch)
			}
			if age < 0 || age > time.Minute {
				t.Errorf("stale age = %v", age)
			}
			if st := c.Stats(); st.Misses != 1 || st.Hits != 0 || st.Invalidations != 1 {
				t.Errorf("stats = %+v, want 1 miss, 0 hits, 1 invalidation", st)
			}
		}},
		{"past maxAge it is dropped", func(t *testing.T, c *resultCache) {
			time.Sleep(time.Millisecond)
			if _, _, _, ok := c.GetStale(key, time.Nanosecond); ok {
				t.Fatal("GetStale served an entry older than maxAge")
			}
			if _, _, _, ok := c.GetStale(key, time.Minute); ok {
				t.Error("an expired stale entry survived its probe")
			}
			if st := c.Stats(); st.Entries != 0 {
				t.Errorf("entries = %d, want 0", st.Entries)
			}
		}},
		{"superseded in place by Put", func(t *testing.T, c *resultCache) {
			c.Put(key, "db", 4, []string{"mlrel_p_l0"}, ans("new"))
			got, ok := c.Get(key)
			if !ok || got[0]["V"] != "new" {
				t.Fatalf("Get after Put = %v, %v; want the fresh answers", got, ok)
			}
			if _, _, _, ok := c.GetStale(key, time.Minute); ok {
				t.Error("GetStale served an entry a fresh Put superseded")
			}
			if st := c.Stats(); st.Entries != 1 {
				t.Errorf("entries = %d, want 1 (replaced in place)", st.Entries)
			}
		}},
		{"a refused Put leaves it stale", func(t *testing.T, c *resultCache) {
			c.Put(key, "db", 3, []string{"mlrel_p_l0"}, ans("late"))
			if _, ok := c.Get(key); ok {
				t.Error("late Put from a superseded snapshot was accepted")
			}
			if answers, _, _, ok := c.GetStale(key, time.Minute); !ok || answers[0]["V"] != "old" {
				t.Errorf("GetStale = %v, %v; want the stale answers kept", answers, ok)
			}
		}},
		{"re-invalidation keeps it stale and counts nothing", func(t *testing.T, c *resultCache) {
			_, _, before, _ := c.GetStale(key, time.Minute)
			if n := c.InvalidateAll("db", 5); n != 0 {
				t.Errorf("re-invalidating a stale entry counted %d", n)
			}
			if _, _, after, ok := c.GetStale(key, time.Minute); !ok || after < before {
				t.Errorf("re-invalidation reset the stale age: %v -> %v (ok=%v)", before, after, ok)
			}
		}},
		{"dropped by Reset", func(t *testing.T, c *resultCache) {
			if n := c.Reset("db"); n != 0 {
				t.Errorf("reset counted %d stale entries, want 0", n)
			}
			if _, _, _, ok := c.GetStale(key, time.Minute); ok {
				t.Error("a stale entry survived a program reload")
			}
			if st := c.Stats(); st.Entries != 0 {
				t.Errorf("entries = %d, want 0", st.Entries)
			}
		}},
		{"counted against capacity", func(t *testing.T, c *resultCache) {
			c.Put(cacheKey("db", 0, "s", "fir", "q1"), "db", 4, nil, ans("1"))
			if st := c.Stats(); st.Entries != 2 || st.Evictions != 0 {
				t.Fatalf("stats = %+v, want 2 entries (one stale), 0 evictions", st)
			}
			// The stale entry is the least recently used: the next Put into
			// the full cache evicts it.
			c.Put(cacheKey("db", 0, "s", "fir", "q2"), "db", 4, nil, ans("2"))
			if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 {
				t.Errorf("stats = %+v, want 2 entries, 1 eviction", st)
			}
			if _, _, _, ok := c.GetStale(key, time.Minute); ok {
				t.Error("the evicted stale entry is still served")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newResultCache(2, true)
			c.Put(key, "db", 3, []string{"mlrel_p_l0"}, ans("old"))
			if n := c.InvalidatePreds("db", 4, []string{"mlrel_p_l0"}); n != 1 {
				t.Fatalf("invalidated %d entries, want 1", n)
			}
			tc.check(t, c)
		})
	}
}
