package labelstore

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

// goldenWAL is the log walOps writes, recorded before the WAL moved
// onto framelog; the on-disk format has not changed since.
const goldenWAL = "testdata/ops.wal"

// walOps runs a fixed sequence of store operations against a WAL at
// path: labels in two caches under group commit, two tombstones, a
// compaction that keeps one label, and labels after it.
func walOps(t *testing.T, path string) {
	t.Helper()
	s, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	video := s.Cache("video", "oracle")
	for i := 0; i < 20; i++ {
		video.Put(i, i%3 == 0)
	}
	video.Commit()
	audio := s.Cache("audio", "oracle2")
	audio.Put(7, true)
	audio.Put(300, false)
	audio.Commit()
	s.InvalidateOracle("oracle")
	s.InvalidateTable("audio")
	s.Cache("video", "oracle").Put(5, true)
	if err := s.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	s.Cache("video", "oracle").Put(6, false)
	text := s.Cache("text", "oracle2")
	text.Put(1<<20, true)
	text.Commit()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALBytesMatchGolden pins the WAL format: walOps writes exactly
// the bytes of testdata/ops.wal.
func TestWALBytesMatchGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.wal")
	walOps(t, path)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenWAL, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenWAL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wal bytes differ from %s:\n got %x\nwant %x", goldenWAL, got, want)
	}
}

// TestGoldenWALTornTailReplays: the golden log with a torn frame after
// it replays to the labels and Stats walOps left, and the tail is cut.
func TestGoldenWALTornTailReplays(t *testing.T) {
	raw, err := os.ReadFile(goldenWAL)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "labels.wal")
	if err := os.WriteFile(path, append(raw[:len(raw):len(raw)], 0x09, 0x00, 0x00), 0o644); err != nil {
		t.Fatal(err)
	}
	s := walStore(t, path)
	want := Stats{Entries: 3, Caches: 2, WALRecords: 5, WALReplayed: 3}
	if st := s.Stats(); st != want {
		t.Fatalf("replayed stats %+v, want %+v", st, want)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(raw)) {
		t.Fatalf("torn tail not truncated to %d bytes: %v, %v", len(raw), fi.Size(), err)
	}
	for _, l := range []struct {
		table, oracle string
		i             int
		v, ok         bool
	}{
		{"video", "oracle", 5, true, true},
		{"video", "oracle", 6, false, true},
		{"video", "oracle", 0, false, false},
		{"audio", "oracle2", 7, false, false},
		{"text", "oracle2", 1 << 20, true, true},
	} {
		if v, ok := s.Cache(l.table, l.oracle).Get(l.i); v != l.v || ok != l.ok {
			t.Fatalf("%s/%s record %d = (%v, %v), want (%v, %v)", l.table, l.oracle, l.i, v, ok, l.v, l.ok)
		}
	}
}
