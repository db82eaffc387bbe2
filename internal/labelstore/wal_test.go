package labelstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"supg/internal/framelog"
	"supg/internal/oracle"
)

func walStore(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// killCopy copies the live log at path while its store stays open —
// what a kill -9 leaves behind, since nothing buffered in the process
// survives — and returns the copy's path.
func killCopy(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "killed.wal")
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestWALRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.wal")

	s1 := walStore(t, path)
	c1 := s1.Cache("video", "oracle")
	c2 := s1.Cache("audio", "oracle")
	for i := 0; i < 100; i++ {
		c1.Put(i, i%3 == 0)
	}
	c2.Put(7, true)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := walStore(t, path)
	if got := s2.Len(); got != 101 {
		t.Fatalf("replayed entries = %d, want 101", got)
	}
	st := s2.Stats()
	if st.WALReplayed != 101 {
		t.Fatalf("wal_replayed = %d, want 101", st.WALReplayed)
	}
	if st.WALRecords == 0 {
		t.Fatal("wal_records = 0 after replay")
	}
	r1 := s2.Cache("video", "oracle")
	for i := 0; i < 100; i++ {
		v, ok := r1.Get(i)
		if !ok || v != (i%3 == 0) {
			t.Fatalf("record %d: got (%v, %v), want (%v, true)", i, v, ok, i%3 == 0)
		}
	}
	if v, ok := s2.Cache("audio", "oracle").Get(7); !ok || !v {
		t.Fatalf("audio record 7: (%v, %v)", v, ok)
	}
	// Replay adopts the caches' ids: a new label of a replayed cache
	// appends one frame, with no fresh cache definition.
	r1.Put(100, true)
	if got := s2.Stats().WALRecords; got != st.WALRecords+1 {
		t.Fatalf("wal_records after put = %d, want %d", got, st.WALRecords+1)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.wal")
	s1 := walStore(t, path)
	for i := 0; i < 10; i++ {
		s1.Cache("t", "o").Put(i, true)
	}
	s1.Close()

	// Simulate a crash mid-append: garbage half-frame at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x09, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	s2 := walStore(t, path)
	if got := s2.Len(); got != 10 {
		t.Fatalf("entries after torn tail = %d, want 10", got)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// The truncated log accepts appends and replays them.
	s2.Cache("t", "o").Put(99, true)
	s2.Close()
	s3 := walStore(t, path)
	if got := s3.Len(); got != 11 {
		t.Fatalf("entries after append+reopen = %d, want 11", got)
	}
}

func TestWALCorruptFrameDropsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.wal")
	s1 := walStore(t, path)
	for i := 0; i < 10; i++ {
		s1.Cache("t", "o").Put(i, true)
	}
	s1.Close()

	// Flip a byte in the last frame's payload: CRC fails, the replay
	// keeps everything before it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := walStore(t, path)
	if got := s2.Len(); got != 9 {
		t.Fatalf("entries after corrupt last frame = %d, want 9", got)
	}
}

func TestWALTombstones(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.wal")
	s1 := walStore(t, path)
	s1.Cache("video", "a").Put(1, true)
	s1.Cache("video", "b").Put(2, true)
	s1.Cache("audio", "a").Put(3, true)
	if n := s1.InvalidateOracle("a"); n != 2 {
		t.Fatalf("invalidated %d caches, want 2", n)
	}
	// Labels bought after the tombstone, against the fresh cache, live.
	s1.Cache("video", "a").Put(4, true)
	s1.Close()

	s2 := walStore(t, path)
	if v, ok := s2.Cache("video", "b").Get(2); !ok || !v {
		t.Fatal("label of untouched oracle lost")
	}
	if _, ok := s2.Cache("video", "a").Get(1); ok {
		t.Fatal("tombstoned label resurrected")
	}
	if _, ok := s2.Cache("audio", "a").Get(3); ok {
		t.Fatal("tombstoned label resurrected (other table)")
	}
	if v, ok := s2.Cache("video", "a").Get(4); !ok || !v {
		t.Fatal("post-tombstone label lost")
	}
	if got := s2.Len(); got != 2 {
		t.Fatalf("entries = %d, want 2", got)
	}

	// Table tombstones likewise survive restart.
	s2.InvalidateTable("video")
	s2.Close()
	s3 := walStore(t, path)
	if got := s3.Len(); got != 0 {
		t.Fatalf("entries after table tombstone = %d, want 0", got)
	}
}

func TestWALCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.wal")
	s := walStore(t, path)
	for i := 0; i < 500; i++ {
		s.Cache("t", "o").Put(i, i%2 == 0)
	}
	s.InvalidateOracle("o") // all 500 labels now dead in the log
	for i := 0; i < 20; i++ {
		s.Cache("t", "o").Put(i, i%2 == 0)
	}
	recordsBefore := s.Stats().WALRecords
	if err := s.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	recordsAfter := s.Stats().WALRecords
	// 20 live labels + 1 cache def.
	if recordsAfter != 21 {
		t.Fatalf("records after compaction = %d, want 21 (before: %d)", recordsAfter, recordsBefore)
	}
	// Compacted log still accepts appends and replays correctly.
	s.Cache("t", "o").Put(900, true)
	s.Close()

	r := walStore(t, path)
	if got := r.Len(); got != 21 {
		t.Fatalf("entries after compact+reopen = %d, want 21", got)
	}
	for i := 0; i < 20; i++ {
		v, ok := r.Cache("t", "o").Get(i)
		if !ok || v != (i%2 == 0) {
			t.Fatalf("record %d: (%v, %v)", i, v, ok)
		}
	}
	if v, ok := r.Cache("t", "o").Get(900); !ok || !v {
		t.Fatal("post-compaction append lost")
	}
}

func TestWALAutoCompactOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.wal")
	s := walStore(t, path)
	// Far more dead than live frames, above the auto-compact floor.
	for i := 0; i < 2000; i++ {
		s.Cache("t", "o").Put(i, true)
	}
	s.InvalidateOracle("o")
	s.Cache("t", "o").Put(1, true)
	s.Close()

	r := walStore(t, path)
	if got := r.Stats().WALRecords; got != 2 {
		t.Fatalf("records after auto-compaction = %d, want 2 (def + 1 label)", got)
	}
	if got := r.Len(); got != 1 {
		t.Fatalf("entries = %d, want 1", got)
	}
}

func TestWALDisabledIsNoop(t *testing.T) {
	s := memStore(t, Options{})
	s.Cache("t", "o").Put(1, true)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WALRecords != 0 || st.WALReplayed != 0 {
		t.Fatalf("WAL stats on WAL-less store: %+v", st)
	}
	// Nil store stays nil-safe through the new methods too.
	var nils *Store
	if err := nils.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nils.CompactWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestSecondOpenOfLiveWALIsLocked: two live stores on one WAL append at
// the offset where their own replay ended, so the second store's frames
// overwrite the labels the first one committed. A second Open must fail
// with framelog.ErrLocked, and every committed label must replay once
// the stores close.
func TestSecondOpenOfLiveWALIsLocked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.wal")
	first := walStore(t, path)
	second, err := Open(Options{WALPath: path})
	if err == nil {
		t.Cleanup(func() { second.Close() })
		t.Error("a second Open of a live WAL succeeded")
	} else if !errors.Is(err, framelog.ErrLocked) {
		t.Fatalf("second Open of a live WAL returned %v, want framelog.ErrLocked", err)
	}
	put := func(s *Store, from int) {
		c := s.Cache("video", "oracle")
		for i := from; i < from+100; i++ {
			c.Put(i, true)
		}
		c.Commit()
	}
	put(first, 0)
	if second == nil {
		if err := first.Close(); err != nil {
			t.Fatal(err)
		}
		second = walStore(t, path)
	}
	put(second, 100)
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	re := walStore(t, path).Cache("video", "oracle")
	for i := 0; i < 200; i++ {
		if _, ok := re.Get(i); !ok {
			t.Fatalf("committed label %d was lost", i)
		}
	}
}

func TestWALOpenErrorSurfaced(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(Options{WALPath: dir}); err == nil {
		t.Fatal("opening a directory as WAL must fail")
	}
}

// TestWALUnframeableCacheDef: a cache whose def the log refuses (names
// longer than a frame) journals none of its labels, so no label reaches
// the log under an id replay cannot resolve. Its labels stay in memory,
// and the refusal does not stop the log for other caches.
func TestWALUnframeableCacheDef(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.wal")
	s := walStore(t, path)
	huge := s.Cache(strings.Repeat("t", walFormat.MaxFrame), "oracle")
	for i := 0; i < 3; i++ {
		huge.Put(i, true)
	}
	if v, ok := huge.Get(2); !ok || !v {
		t.Fatalf("memory tier lost the label: (%v, %v)", v, ok)
	}
	if got := s.Stats().WALRecords; got != 0 {
		t.Fatalf("%d frames journaled for a cache whose def was refused", got)
	}
	s.Cache("video", "oracle").Put(7, true)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := walStore(t, path)
	if st := r.Stats(); r.Len() != 1 || st.WALRecords != 2 || st.WALReplayed != 1 {
		t.Fatalf("reopen: %d labels, %+v; want the one video label in 2 frames", r.Len(), st)
	}
	if v, ok := r.Cache("video", "oracle").Get(7); !ok || !v {
		t.Fatalf("video label 7: (%v, %v)", v, ok)
	}
}

func TestWALConcurrentPuts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.wal")
	s := walStore(t, path)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			c := s.Cache("t", "o")
			for i := 0; i < 200; i++ {
				c.Put(g*200+i, (g+i)%2 == 0)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	s.Close()
	r := walStore(t, path)
	if got := r.Len(); got != 1600 {
		t.Fatalf("entries = %d, want 1600", got)
	}
	for g := 0; g < 8; g++ {
		for i := 0; i < 200; i++ {
			v, ok := r.Cache("t", "o").Get(g*200 + i)
			if !ok || v != ((g+i)%2 == 0) {
				t.Fatalf("record %d: (%v, %v)", g*200+i, v, ok)
			}
		}
	}
}

// TestWALSyncPolicy pins the fsync count of each mode. Group commit
// (the default) syncs once per Commit and never inside Put; tombstones
// sync at once. Relaxed mode syncs every N frames and ignores Commit.
func TestWALSyncPolicy(t *testing.T) {
	t.Run("group-commit", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "labels.wal")
		s := walStore(t, path)
		c := s.Cache("t", "o")
		for i := 0; i < 100; i++ {
			c.Put(i, i%2 == 0)
		}
		if st := s.Stats(); st.WALSyncs != 0 || st.WALRecords != 101 {
			t.Fatalf("after 100 puts: %d syncs, %d records; want 0 syncs, 101 records (def + labels)", st.WALSyncs, st.WALRecords)
		}
		c.Commit()
		if got := s.Stats().WALSyncs; got != 1 {
			t.Fatalf("syncs after commit = %d, want 1", got)
		}
		if r := walStore(t, killCopy(t, path)); r.Len() != 100 {
			t.Fatalf("committed labels replayed from a kill copy = %d, want 100", r.Len())
		}
		c.Commit() // nothing pending
		if got := s.Stats().WALSyncs; got != 1 {
			t.Fatalf("syncs after an empty commit = %d, want 1", got)
		}
		s.InvalidateOracle("o")
		if got := s.Stats().WALSyncs; got != 2 {
			t.Fatalf("syncs after a tombstone = %d, want 2", got)
		}
		if r := walStore(t, killCopy(t, path)); r.Len() != 0 {
			t.Fatalf("tombstoned labels replayed from a kill copy: %d", r.Len())
		}
	})
	t.Run("relaxed", func(t *testing.T) {
		s, err := Open(Options{WALPath: filepath.Join(t.TempDir(), "labels.wal"), WALSyncEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		c := s.Cache("t", "o")
		for i := 0; i < 10; i++ {
			c.Put(i, true)
		}
		c.Commit()
		s.InvalidateTable("t")
		// 12 frames (def, 10 labels, tombstone): syncs at frames 4, 8, 12.
		if got := s.Stats().WALSyncs; got != 3 {
			t.Fatalf("relaxed syncs = %d, want 3", got)
		}
	})
}

// TestWALConcurrentLabelAllDurableWithoutClose runs 8 queries that
// label overlapping ids through one WAL-backed cache at once. Right
// after each LabelAll returns, the log is copied with the store still
// open; that copy must replay every label the call returned, including
// store hits on labels another query bought and had not committed.
func TestWALConcurrentLabelAllDurableWithoutClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.wal")
	s := walStore(t, path)
	c := s.Cache("t", "o")
	label := func(i int) bool { return i%3 == 0 }
	type returned struct {
		log []byte
		ids []int
	}
	var (
		mu   sync.Mutex
		seen []returned
		wg   sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				ids := make([]int, 60)
				for k := range ids {
					ids[k] = (g*20 + round*37 + k*3) % 400
				}
				b := oracle.NewBudgeted(oracle.Func(func(i int) (bool, error) { return label(i), nil }), len(ids)).WithStore(c, false)
				labs, err := b.LabelAll(ids)
				if err != nil {
					t.Error(err)
					return
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Error(err)
					return
				}
				for k, v := range labs {
					if v != label(ids[k]) {
						t.Errorf("record %d labeled %v", ids[k], v)
					}
				}
				mu.Lock()
				seen = append(seen, returned{raw, ids})
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	for n, ret := range seen {
		dst := filepath.Join(t.TempDir(), fmt.Sprintf("killed-%d.wal", n))
		if err := os.WriteFile(dst, ret.log, 0o644); err != nil {
			t.Fatal(err)
		}
		r := walStore(t, dst)
		rc := r.Cache("t", "o")
		for _, i := range ret.ids {
			if v, ok := rc.Get(i); !ok || v != label(i) {
				t.Fatalf("call %d used record %d, but its kill copy replays (%v, %v)", n, i, v, ok)
			}
		}
		r.Close()
	}
}

// TestWALCompactionCarriesPendingLabels compacts while labels are still
// pending (appended, not committed): the compacted log must hold them,
// so a kill right after compaction loses no live label.
func TestWALCompactionCarriesPendingLabels(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.wal")
	s := walStore(t, path)
	c := s.Cache("t", "o")
	for i := 0; i < 100; i++ {
		c.Put(i, i%2 == 0)
	}
	if err := s.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	r := walStore(t, killCopy(t, path))
	if got := r.Len(); got != 100 {
		t.Fatalf("kill copy after compaction replays %d labels, want 100", got)
	}
	for i := 0; i < 100; i++ {
		if v, ok := r.Cache("t", "o").Get(i); !ok || v != (i%2 == 0) {
			t.Fatalf("record %d: (%v, %v)", i, v, ok)
		}
	}
	// The compacted log keeps group-committing.
	c.Put(100, true)
	c.Commit()
	if got := walStore(t, killCopy(t, path)).Len(); got != 101 {
		t.Fatalf("kill copy after a post-compaction commit replays %d labels, want 101", got)
	}
}
