package framelog

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var testFormat = Format{Table: crc32.MakeTable(crc32.Castagnoli), MaxFrame: 64}

// rejectByte is a payload the test decoder refuses.
const rejectByte = 0xEE

// openLog opens path, collecting the replayed payloads; a payload
// starting with rejectByte is rejected.
func openLog(t *testing.T, path string) (*Log, []string) {
	t.Helper()
	var got []string
	l, err := Open(path, testFormat, func(p []byte) error {
		if p[0] == rejectByte {
			return errors.New("rejected")
		}
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, got
}

// writeLog creates a log at path holding the payloads, synced and
// closed, and returns the file's bytes.
func writeLog(t *testing.T, path string, payloads ...string) []byte {
	t.Helper()
	l, _ := openLog(t, path)
	for _, p := range payloads {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func assertPayloads(t *testing.T, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
}

func assertSize(t *testing.T, path string, want int) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(want) {
		t.Fatalf("%s is %d bytes, want %d", path, fi.Size(), want)
	}
}

func TestFrameLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	raw := writeLog(t, path, "ab")
	want := []byte{2, 0, 0, 0, 0, 0, 0, 0, 'a', 'b'}
	crc := crc32.Checksum([]byte("ab"), testFormat.Table)
	want[4], want[5], want[6], want[7] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
	if !bytes.Equal(raw, want) {
		t.Fatalf("frame bytes %v, want %v", raw, want)
	}
	// The polynomial is part of the format: an IEEE reader sees a
	// corrupt frame.
	ieee := Format{Table: crc32.IEEETable, MaxFrame: 64}
	if n, end, err := Scan(bytes.NewReader(raw), ieee, func([]byte) error { return nil }); n != 0 || end != 0 || err != nil {
		t.Fatalf("IEEE scan of a Castagnoli log accepted %d frames (%v)", n, err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	raw := writeLog(t, path, "one", "two")
	for _, tail := range [][]byte{{9, 0, 0}, {9, 0, 0, 0, 1, 2, 3, 4, 'x'}} {
		if err := os.WriteFile(path, append(raw[:len(raw):len(raw)], tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, got := openLog(t, path)
		assertPayloads(t, got, "one", "two")
		assertSize(t, path, len(raw))
		if l.Frames() != 2 {
			t.Fatalf("frames = %d, want 2", l.Frames())
		}
		l.Close()
	}
	// The truncated log takes appends, and a reopen replays them.
	l, _ := openLog(t, path)
	if err := l.Append([]byte("three")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, got := openLog(t, path)
	assertPayloads(t, got, "one", "two", "three")
}

func TestBadCRCDropsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	raw := writeLog(t, path, "one", "two", "three")
	raw[8+3+8] ^= 0xFF // first payload byte of "two"
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, got := openLog(t, path)
	assertPayloads(t, got, "one")
	assertSize(t, path, 8+3)
}

func TestRejectedPayloadEndsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	writeLog(t, path, "one", string([]byte{rejectByte, 1}), "three")
	l, got := openLog(t, path)
	assertPayloads(t, got, "one")
	assertSize(t, path, 8+3)
	if l.Frames() != 1 {
		t.Fatalf("frames = %d, want 1", l.Frames())
	}
}

func TestCorruptLengthEndsLog(t *testing.T) {
	var zero, huge bytes.Buffer
	zero.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	huge.Write([]byte{65, 0, 0, 0, 0, 0, 0, 0}) // MaxFrame is 64
	huge.Write(make([]byte, 65))
	for name, b := range map[string][]byte{"zero": zero.Bytes(), "oversized": huge.Bytes()} {
		if n, end, err := Scan(bytes.NewReader(b), testFormat, func([]byte) error { return nil }); n != 0 || end != 0 || err != nil {
			t.Fatalf("%s length: %d frames to offset %d (%v)", name, n, end, err)
		}
	}
}

// failingReader reads r until it has returned n bytes, then fails
// every read with err.
type failingReader struct {
	r   io.Reader
	n   int
	err error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	k, err := f.r.Read(p[:min(len(p), f.n)])
	f.n -= k
	return k, err
}

// TestReadErrorFailsOpen: a read that fails mid-frame for a reason
// other than the end of the file is not a torn tail. Scan returns it,
// and Open fails without cutting the frames behind it.
func TestReadErrorFailsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	raw := writeLog(t, path, "one", "two", "three")
	eio := errors.New("input/output error")
	for _, at := range []int{8 + 3 + 4, 8 + 3 + 8 + 1} { // mid-header, mid-payload of "two"
		n, end, err := Scan(&failingReader{bytes.NewReader(raw), at, eio}, testFormat, func([]byte) error { return nil })
		if !errors.Is(err, eio) || n != 1 || end != 8+3 {
			t.Fatalf("read error at %d: %d frames to %d, err %v", at, n, end, err)
		}
		replaySource = func(f *os.File) io.Reader { return &failingReader{f, at, eio} }
		l, err := Open(path, testFormat, func([]byte) error { return nil })
		replaySource = func(f *os.File) io.Reader { return f }
		if err == nil {
			l.Close()
		}
		if !errors.Is(err, eio) {
			t.Fatalf("read error at %d: Open returned %v, want the read error", at, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("read error at %d: Open changed the log (%d of %d bytes, %v)", at, len(got), len(raw), err)
		}
	}
	_, got := openLog(t, path)
	assertPayloads(t, got, "one", "two", "three")
}

func TestAppendRefusesUnframeablePayload(t *testing.T) {
	l, _ := openLog(t, filepath.Join(t.TempDir(), "log"))
	for _, p := range [][]byte{nil, make([]byte, testFormat.MaxFrame+1)} {
		if err := l.Append(p); err == nil {
			t.Fatalf("append of %d bytes succeeded", len(p))
		}
	}
	// The refusal is not a failure of the log.
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(make([]byte, testFormat.MaxFrame)); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRemovesStaleCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	writeLog(t, path, "one")
	if err := os.WriteFile(path+compactSuffix, []byte("half a rewrite"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, got := openLog(t, path)
	assertPayloads(t, got, "one")
	if _, err := os.Stat(path + compactSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale %s survived Open: %v", compactSuffix, err)
	}
}

// TestSecondOpenIsLocked: while a log is open, a second Open of it
// fails with ErrLocked before it touches the file or a live Rewrite's
// <path>.compact, and Close releases the lock.
func TestSecondOpenIsLocked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := openLog(t, path)
	if err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+compactSuffix, []byte("a rewrite in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	second, err := Open(path, testFormat, func([]byte) error { return nil })
	if err == nil {
		second.Close()
	}
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open of a live log returned %v, want ErrLocked", err)
	}
	if _, err := os.Stat(path + compactSuffix); err != nil {
		t.Fatalf("a refused Open removed the live log's %s: %v", compactSuffix, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got := openLog(t, path)
	assertPayloads(t, got, "one")
}

// TestRewriteAdoptsFreshFile: after a Rewrite the log's handle is the
// file at path, so frames appended after it are what a reopen — or a
// copy taken without Close, all a kill -9 leaves — replays. Pending
// frames of the old file are dropped with it.
func TestRewriteAdoptsFreshFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := openLog(t, path)
	for _, p := range []string{"a", "b", "c"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	syncs := l.Syncs()
	if err := l.Rewrite(func(emit func([]byte) error) error { return emit([]byte("c")) }); err != nil {
		t.Fatal(err)
	}
	if l.Frames() != 1 || l.Pending() != 0 || l.Syncs() != syncs+1 {
		t.Fatalf("after rewrite: %d frames, %d pending, %d syncs", l.Frames(), l.Pending(), l.Syncs()-syncs)
	}
	fi, err := l.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if onDisk, err := os.Stat(path); err != nil || !os.SameFile(fi, onDisk) {
		t.Fatalf("after the rewrite the live handle is not %s (%v)", path, err)
	}
	if _, err := os.Stat(path + compactSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("%s left behind: %v", compactSuffix, err)
	}
	if err := l.Append([]byte("d")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, _, err := Scan(bytes.NewReader(raw), testFormat, func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	assertPayloads(t, got, "c", "d")
}

// TestRewriteFailureBeforeRename: a snapshot that fails, or emits a
// frame the format cannot carry, leaves the old log in place and
// writable, with no tmp file behind.
func TestRewriteFailureBeforeRename(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := openLog(t, path)
	if err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("snapshot failed")
	for _, write := range []func(emit func([]byte) error) error{
		func(emit func([]byte) error) error { emit([]byte("x")); return boom },
		func(emit func([]byte) error) error { return emit(make([]byte, testFormat.MaxFrame+1)) },
	} {
		if err := l.Rewrite(write); err == nil {
			t.Fatal("failed rewrite succeeded")
		}
		if err := l.Err(); err != nil {
			t.Fatalf("a rewrite that failed before its rename stuck: %v", err)
		}
		if _, err := os.Stat(path + compactSuffix); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s left behind: %v", compactSuffix, err)
		}
	}
	if err := l.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, got := openLog(t, path)
	assertPayloads(t, got, "a", "b")
}

// TestRewriteFailureAfterRename: once the fresh log is renamed over the
// old one, a failed directory sync could still let a crash bring back
// the old file, so it is fail-stop.
func TestRewriteFailureAfterRename(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := openLog(t, path)
	boom := errors.New("dir sync failed")
	syncDir = func(string) error { return boom }
	t.Cleanup(func() { syncDir = SyncDir })
	err := l.Rewrite(func(emit func([]byte) error) error { return emit([]byte("a")) })
	if !errors.Is(err, boom) {
		t.Fatalf("rewrite returned %v, want the directory sync failure", err)
	}
	if got := l.Append([]byte("b")); !errors.Is(got, boom) {
		t.Fatalf("append after the failure: %v", got)
	}
	syncDir = SyncDir
	l.Close()
	_, got := openLog(t, path)
	assertPayloads(t, got, "a")
}

// TestStickyWriteFailure: a failed flush may leave a torn frame, so the
// log refuses every later write with the first error and Close reports
// it, every time. The flush fails on a closed file and through the
// FailWrites seam alike, and FailWrites keeps the frames appended
// before it.
func TestStickyWriteFailure(t *testing.T) {
	boom := errors.New("disk full")
	for fault, inject := range map[string]func(*Log){
		"closed file": func(l *Log) { l.f.Close() },
		"FailWrites":  func(l *Log) { l.FailWrites(boom) },
	} {
		path := filepath.Join(t.TempDir(), "log")
		l, _ := openLog(t, path)
		if err := l.Append([]byte("a")); err != nil {
			t.Fatal(err)
		}
		inject(l)
		if err := l.Append([]byte("b")); err != nil {
			t.Fatalf("%s: a buffered append failed: %v", fault, err)
		}
		first := l.Sync()
		if first == nil {
			t.Fatalf("%s: sync succeeded", fault)
		}
		for name, write := range map[string]func() error{
			"Append":  func() error { return l.Append([]byte("c")) },
			"Sync":    l.Sync,
			"Rewrite": func() error { return l.Rewrite(func(func([]byte) error) error { return nil }) },
			"Err":     l.Err,
			"Close":   l.Close,
			"Close 2": l.Close,
		} {
			if got := write(); !errors.Is(got, first) {
				t.Fatalf("%s: %s after the failure: %v, want %v", fault, name, got, first)
			}
		}
		if fault == "FailWrites" {
			if !errors.Is(first, boom) {
				t.Fatalf("sync failed with %v, want the injected %v", first, boom)
			}
			_, got := openLog(t, path)
			assertPayloads(t, got, "a")
		}
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := openLog(t, path)
	if err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	syncs := l.Syncs()
	for i := 0; i < 2; i++ {
		if err := l.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	if l.Syncs() != syncs+1 {
		t.Fatalf("two closes synced %d times, want once", l.Syncs()-syncs)
	}
	if err := l.Append([]byte("b")); !errors.Is(err, errClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Err(); !errors.Is(err, errClosed) {
		t.Fatalf("Err after close: %v", err)
	}
	_, got := openLog(t, path)
	assertPayloads(t, got, "a")
}

// TestScanReusesFrameBuffer: a replay costs a fixed number of
// allocations, not one per frame.
func TestScanReusesFrameBuffer(t *testing.T) {
	var b bytes.Buffer
	w := Format{Table: crc32.IEEETable, MaxFrame: 1 << 10}
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path, w, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := l.Append([]byte(fmt.Sprintf("label %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var frames int64
	allocs := testing.AllocsPerRun(5, func() {
		b.Reset()
		b.Write(raw)
		frames, _, _ = Scan(&b, w, func([]byte) error { return nil })
	})
	if frames != 10000 || allocs > 8 {
		t.Fatalf("scan of %d frames allocated %.0f times", frames, allocs)
	}
}

func TestDecoder(t *testing.T) {
	b := AppendString([]byte{7}, "name")
	d := Decoder{B: b}
	if v, s := d.Uvarint(), d.Str(); v != 7 || s != "name" || d.Finish() != nil {
		t.Fatalf("decoded (%d, %q, %v)", v, s, d.Finish())
	}
	d = Decoder{B: append(b, 0)}
	d.Uvarint()
	d.Str()
	if d.Finish() == nil {
		t.Fatal("a trailing byte went unreported")
	}
	// The first error sticks and later reads return zero values.
	d = Decoder{B: AppendString([]byte{200, 1}, "name")}
	if d.Count(100); d.Err == nil {
		t.Fatal("count 200 passed limit 100")
	}
	if s := d.Str(); s != "" || d.Finish() == nil {
		t.Fatal("read past a sticky error")
	}
}
