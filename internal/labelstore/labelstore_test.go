package labelstore

import (
	"sync"
	"testing"
)

// memStore opens a store without a write-ahead log.
func memStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGetPutRoundTrip(t *testing.T) {
	s := memStore(t, Options{})
	c := s.Cache("video", "video_oracle")
	if _, ok := c.Get(7); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(7, true)
	c.Put(8, false)
	if v, ok := c.Get(7); !ok || !v {
		t.Errorf("Get(7) = %v, %v after Put(7, true)", v, ok)
	}
	if v, ok := c.Get(8); !ok || v {
		t.Errorf("Get(8) = %v, %v after Put(8, false)", v, ok)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	// Re-putting an existing record must not double-count it.
	c.Put(7, true)
	if s.Len() != 2 {
		t.Errorf("Len after duplicate Put = %d, want 2", s.Len())
	}
}

func TestCacheHandleIsSharedPerKey(t *testing.T) {
	s := memStore(t, Options{})
	a := s.Cache("t", "o")
	b := s.Cache("t", "o")
	if a != b {
		t.Fatal("same (table, oracle) pair returned distinct caches")
	}
	if s.Cache("t", "other") == a {
		t.Fatal("different oracle shares a cache")
	}
	if s.Cache("other", "o") == a {
		t.Fatal("different table shares a cache")
	}
}

func TestNilStoreServesMisses(t *testing.T) {
	var s *Store
	if c := s.Cache("t", "o"); c != nil {
		t.Fatal("nil store returned a cache")
	}
	if n := s.InvalidateTable("t"); n != 0 {
		t.Errorf("nil store invalidated %d caches", n)
	}
	if s.Len() != 0 || s.Stats() != (Stats{}) {
		t.Error("nil store reported state")
	}
}

func TestEvictionBoundsEntries(t *testing.T) {
	// Budget for exactly 10 entries.
	s := memStore(t, Options{MaxBytes: 10 * entryBytes})
	c := s.Cache("t", "o")
	for i := 0; i < 100; i++ {
		c.Put(i, i%2 == 0)
	}
	if got := s.Len(); got != 10 {
		t.Fatalf("Len = %d, want bounded at 10", got)
	}
	st := s.Stats()
	if st.Evictions != 90 {
		t.Errorf("Evictions = %d, want 90", st.Evictions)
	}
	// FIFO: the oldest 90 are gone, the newest 10 remain.
	for i := 0; i < 90; i++ {
		if _, ok := c.Get(i); ok {
			t.Fatalf("evicted record %d still cached", i)
		}
	}
	for i := 90; i < 100; i++ {
		if v, ok := c.Get(i); !ok || v != (i%2 == 0) {
			t.Fatalf("retained record %d = %v, %v", i, v, ok)
		}
	}
}

// TestDefaultOptionsEvictFIFO: eviction under the default options is
// FIFO over the whole cache — of 1100 labels under a 1000-label budget,
// exactly the oldest 100 are gone.
func TestDefaultOptionsEvictFIFO(t *testing.T) {
	s := memStore(t, Options{MaxBytes: 1000 * entryBytes})
	c := s.Cache("t", "o")
	for i := 0; i < 1100; i++ {
		c.Put(i, true)
	}
	for i := 0; i < 1100; i++ {
		if _, ok := c.Get(i); ok != (i >= 100) {
			t.Fatalf("record %d cached = %v, want %v", i, ok, i >= 100)
		}
	}
	if st := s.Stats(); st.Entries != 1000 || st.Evictions != 100 {
		t.Fatalf("entries %d, evictions %d; want 1000 and 100", st.Entries, st.Evictions)
	}
}

func TestInvalidateTableKillsLiveHandles(t *testing.T) {
	s := memStore(t, Options{})
	c := s.Cache("t", "o")
	other := s.Cache("u", "o2")
	c.Put(1, true)
	other.Put(1, true)

	if n := s.InvalidateTable("t"); n != 1 {
		t.Fatalf("InvalidateTable dropped %d caches, want 1", n)
	}
	// The old handle must stop serving (stale labels) and stop
	// accepting writes (pollution of the replacement cache).
	if _, ok := c.Get(1); ok {
		t.Fatal("invalidated handle served a stale label")
	}
	c.Put(2, true)
	if _, ok := c.Get(2); ok {
		t.Fatal("invalidated handle accepted a write")
	}
	// A fresh handle for the same key starts cold.
	fresh := s.Cache("t", "o")
	if fresh == c {
		t.Fatal("Cache returned the killed handle")
	}
	if _, ok := fresh.Get(1); ok {
		t.Fatal("replacement cache inherited a stale label")
	}
	// Unrelated caches survive.
	if v, ok := other.Get(1); !ok || !v {
		t.Error("unrelated cache was invalidated")
	}
	if s.Stats().Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", s.Stats().Invalidations)
	}
}

func TestInvalidateOracleMatchesAcrossTables(t *testing.T) {
	s := memStore(t, Options{})
	s.Cache("a", "shared_oracle").Put(1, true)
	s.Cache("b", "shared_oracle").Put(1, true)
	s.Cache("a", "other_oracle").Put(1, true)
	if n := s.InvalidateOracle("shared_oracle"); n != 2 {
		t.Fatalf("InvalidateOracle dropped %d caches, want 2", n)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1 surviving entry", s.Len())
	}
}

func TestStatsCountActivity(t *testing.T) {
	s := memStore(t, Options{MaxBytes: 2 * entryBytes})
	c := s.Cache("t", "o")
	c.Put(1, true)
	c.Get(1) // hit
	c.Get(2) // miss
	c.Put(2, true)
	c.Put(3, true) // evicts 1
	s.InvalidateTable("t")

	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 1 || st.Invalidations != 1 {
		t.Errorf("Stats = %+v, want 1 of each", st)
	}
	if st.Entries != 0 || st.Caches != 0 {
		t.Errorf("post-invalidation Stats = %+v, want empty", st)
	}
}

// TestConcurrentAccess exercises the cache locking under -race:
// parallel readers, writers, and invalidators on overlapping keys.
func TestConcurrentAccess(t *testing.T) {
	s := memStore(t, Options{MaxBytes: 1000 * entryBytes})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := s.Cache("t", "o")
			for i := 0; i < 2000; i++ {
				c.Put(i, i%3 == 0)
				if v, ok := c.Get(i); ok && v != (i%3 == 0) {
					t.Errorf("worker %d: wrong label for %d", w, i)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.InvalidateTable("t")
			// Labels are a pure function of the index; re-seeding after
			// invalidation must agree with what the workers write.
			s.Cache("t", "o").Put(i, i%3 == 0)
		}
	}()
	wg.Wait()
	if s.Len() > 1000 {
		t.Errorf("Len = %d exceeds the configured bound", s.Len())
	}
	// With all writers stopped, invalidating everything must drain the
	// entry accounting to exactly zero — a Put racing a kill may
	// neither leak nor double-subtract entries.
	s.InvalidateTable("t")
	if got := s.Len(); got != 0 {
		t.Errorf("Len = %d after full invalidation, want 0 (phantom entries)", got)
	}
}

// TestNewCacheDisplacesOldWorkload: when one (table, oracle) pair has
// filled the store-wide budget, inserts for a new pair must evict the
// old workload's entries rather than self-evicting their own fresh
// entries (which would pin the hit rate of every new workload at 0).
func TestNewCacheDisplacesOldWorkload(t *testing.T) {
	s := memStore(t, Options{MaxBytes: 50 * entryBytes})
	old := s.Cache("old", "o")
	for i := 0; i < 50; i++ {
		old.Put(i, true)
	}
	fresh := s.Cache("new", "o")
	for i := 0; i < 20; i++ {
		fresh.Put(i, true)
	}
	hits := 0
	for i := 0; i < 20; i++ {
		if _, ok := fresh.Get(i); ok {
			hits++
		}
	}
	if hits != 20 {
		t.Errorf("new workload retained %d/20 entries — self-evicted while the old cache held the budget", hits)
	}
	if s.Len() > 50 {
		t.Errorf("Len = %d exceeds the budget", s.Len())
	}
	if s.Stats().Evictions < 20 {
		t.Errorf("Evictions = %d, want >= 20 from the old workload", s.Stats().Evictions)
	}
}
