// Package framelog is the append-only, CRC-framed log under both of
// the engine's durable journals: the label store's write-ahead log
// and the storage tier's MANIFEST. Each frame is
//
//	[4-byte LE payload length][4-byte LE CRC32(payload)][payload]
//
// and two logs differ only in their Format: the CRC32 polynomial and
// the largest payload a frame may carry. The owner of a log keeps its
// record codec, its commit cadence and its compaction snapshot; this
// package keeps the frames and the file.
//
// Recovery. Open replays every whole frame through the owner's decode
// callback. The first torn frame (a short header or payload), corrupt
// frame (a zero or oversized length, a CRC mismatch) or payload the
// owner rejects ends the usable log — the expected shape of a crash
// mid-append — and Open truncates the file there and fsyncs it, so
// appends extend exactly the prefix that was replayed. A read that
// fails before the end of the file is no such end: the bytes behind it
// may hold whole frames, so Open fails and truncates nothing.
//
// Compaction. Rewrite writes a fresh log to <path>.compact, fsyncs it,
// renames it over the log and fsyncs the directory. The fresh file's
// open handle becomes the log, so no reopen can fail and leave appends
// going to the unlinked old file. A crash before the rename leaves the
// old log intact next to a stale <path>.compact, which Open removes.
//
// Exclusion. Open takes an exclusive lock on <path>.lock and holds it
// until Close, so a second live Open of one log, from this process or
// another, fails with ErrLocked instead of appending at the offset its
// own replay ended and overwriting the first one's frames. The lock is
// a flock where package syscall has one (linux, darwin and the BSDs)
// and is not taken elsewhere.
//
// Failure. A failed write or sync leaves the file in an unknown state:
// it may end in a torn frame that would hide every later frame from
// replay. So the first such error sticks: every later Append, Sync and
// Rewrite returns it (fail-stop), and Close reports it.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// Format is what varies between logs that share the frame layout.
type Format struct {
	// Table is the CRC32 polynomial of the frame checksum.
	Table *crc32.Table
	// MaxFrame bounds a payload; a frame declaring a longer one reads as
	// corruption, and Append refuses to write one.
	MaxFrame int
}

// check reports why payload cannot be framed, or nil.
func (f Format) check(payload []byte) error {
	if len(payload) == 0 || len(payload) > f.MaxFrame {
		return fmt.Errorf("framelog: frame of %d bytes outside [1, %d]", len(payload), f.MaxFrame)
	}
	return nil
}

const (
	headerSize    = 8
	compactSuffix = ".compact"
	lockSuffix    = ".lock"
)

// errClosed is what every write to a closed log returns.
var errClosed = errors.New("framelog: log closed")

// ErrLocked is what Open returns while another open Log holds the
// log's lock.
var ErrLocked = errors.New("framelog: log is open elsewhere")

// Test seams: tests replace syncDir to fail a directory sync and
// replaySource to fail a read of Open's replay.
var (
	syncDir      = SyncDir
	replaySource = func(f *os.File) io.Reader { return f }
)

// Scan reads whole frames from r and passes each payload to fn, in
// order. It stops at the end of r, at the first torn or corrupt frame
// and at the first payload fn rejects, and returns the number of frames
// fn accepted and the offset just past the last of them. A read that
// fails for any reason but the end of r is returned as err: it says
// nothing about the bytes behind it. The payload slice is reused from
// frame to frame: fn must copy what it keeps.
func Scan(r io.Reader, format Format, fn func(payload []byte) error) (frames, end int64, err error) {
	br := bufio.NewReader(r)
	var (
		hdr [headerSize]byte
		buf []byte
	)
	for {
		if _, err = io.ReadFull(br, hdr[:]); err != nil {
			return frames, end, readError(err)
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		if n == 0 || uint64(n) > uint64(format.MaxFrame) {
			return frames, end, nil
		}
		if buf, err = readPayload(br, buf, int(n)); err != nil {
			return frames, end, readError(err)
		}
		if crc32.Checksum(buf, format.Table) != binary.LittleEndian.Uint32(hdr[4:]) || fn(buf) != nil {
			return frames, end, nil
		}
		frames++
		end += headerSize + int64(n)
	}
}

// readError maps the end of the input, whole or mid-frame, to nil (a
// torn tail is the log's end) and keeps any other read failure.
func readError(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}

// readPayload reads n bytes into buf's storage. It grows buf by at most
// its own length per read, so a corrupt length near MaxFrame in a short
// tail allocates in proportion to the bytes actually there.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		k := min(n-len(buf), max(len(buf), 4096))
		buf = slices.Grow(buf, k)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+k]); err != nil {
			return buf, err
		}
		buf = buf[:len(buf)+k]
	}
	return buf, nil
}

// writeFrame writes one framed payload to w.
func writeFrame(w *bufio.Writer, format Format, payload []byte) error {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, format.Table))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Log is an open frame log. It is not safe for concurrent use: its
// owner serializes every call.
type Log struct {
	path    string
	format  Format
	f       *os.File
	lock    *os.File // <path>.lock, locked until Close
	w       *bufio.Writer
	frames  int64 // frames in the file, the buffered ones included
	pending int   // frames appended since the last sync
	syncs   int64
	err     error // sticky: the first failed write, sync or commit
	closed  bool
}

// Open opens the log at path, creating it if absent. It locks the log
// (see Exclusion), removes a stale <path>.compact, replays every whole
// frame through fn (see Scan), truncates and fsyncs a torn or rejected
// tail, and syncs the directory of an empty log: the log may be one
// this call created, whose directory entry is durable only once its
// directory is synced. A read that fails during the replay fails Open
// and leaves the file as it was: the frames behind it may be whole.
func Open(path string, format Format, fn func(payload []byte) error) (*Log, error) {
	lock, err := acquireLock(path + lockSuffix)
	if err != nil {
		return nil, fmt.Errorf("framelog: lock %s: %w", path, err)
	}
	// A crash mid-Rewrite leaves the tmp log next to an intact log.
	os.Remove(path + compactSuffix)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644) //supg:atomiccommit-ok the log is the commit path: frames are CRC-framed and fsynced by the owner's cadence, a torn tail is truncated below, and an empty log's directory is synced
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("framelog: open: %w", err)
	}
	l := &Log{path: path, format: format, f: f, lock: lock}
	if err := l.recover(fn); err != nil {
		f.Close()
		lock.Close()
		return nil, fmt.Errorf("framelog: recover %s: %w", path, err)
	}
	l.w = bufio.NewWriter(f)
	return l, nil
}

// acquireLock opens the lock file at path, creating it if absent, and
// locks it, or fails with ErrLocked while another open holds the lock.
func acquireLock(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644) //supg:atomiccommit-ok the lock file holds no data; only the lock on it matters, and a crash that loses the file loses nothing
	if err != nil {
		return nil, err
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// recover replays the file and positions it for appends after the last
// frame fn accepted.
func (l *Log) recover(fn func(payload []byte) error) error {
	frames, end, err := Scan(replaySource(l.f), l.format, fn)
	if err != nil {
		return err
	}
	l.frames = frames
	fi, err := l.f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() > end {
		if err := l.f.Truncate(end); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	if end == 0 {
		if err := syncDir(filepath.Dir(l.path)); err != nil {
			return err
		}
	}
	_, err = l.f.Seek(end, io.SeekStart)
	return err
}

// Append writes one frame to the log's buffer; it is durable after the
// next Sync. An empty payload or one longer than MaxFrame is refused
// and nothing is written.
func (l *Log) Append(payload []byte) error {
	if err := l.Err(); err != nil {
		return err
	}
	if err := l.format.check(payload); err != nil {
		return err
	}
	if err := writeFrame(l.w, l.format, payload); err != nil {
		return l.fail("append", err)
	}
	l.frames++
	l.pending++
	return nil
}

// Sync flushes the buffered frames and fsyncs the file.
func (l *Log) Sync() error {
	if err := l.Err(); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		return l.fail("flush", err)
	}
	if err := l.f.Sync(); err != nil {
		return l.fail("sync", err)
	}
	l.pending = 0
	l.syncs++
	return nil
}

// Rewrite replaces the log with the frames write passes to emit,
// committed through <path>.compact, fsync, rename and directory fsync,
// and appends to the fresh file from then on. Frames appended and not
// yet synced go with the old file, so the snapshot must carry every
// frame still live. A failure before the rename leaves the old log in
// place and is returned. A failed directory sync after it sticks: a
// crash could still bring back the old log and lose frames appended to
// the new one.
func (l *Log) Rewrite(write func(emit func(payload []byte) error) error) error {
	if err := l.Err(); err != nil {
		return err
	}
	tmp := l.path + compactSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644) //supg:atomiccommit-ok Rewrite's tmp log: fsynced below, then renamed over the log
	if err != nil {
		return fmt.Errorf("framelog: rewrite: %w", err)
	}
	w := bufio.NewWriter(f)
	var frames int64
	err = write(func(payload []byte) error {
		if err := l.format.check(payload); err != nil {
			return err
		}
		frames++
		return writeFrame(w, l.format, payload)
	})
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		l.syncs++
		err = os.Rename(tmp, l.path) //supg:atomiccommit-ok this IS the rewrite's commit point: tmp was fsynced above and the directory is synced below
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("framelog: rewrite %s: %w", l.path, err)
	}
	// The old handle now names an unlinked file.
	l.f.Close()
	l.f, l.w, l.frames, l.pending = f, w, frames, 0
	if err := syncDir(filepath.Dir(l.path)); err != nil {
		return l.fail("rewrite: sync dir of", err)
	}
	return nil
}

// fail records err as the log's sticky error and returns it.
func (l *Log) fail(op string, err error) error {
	l.err = fmt.Errorf("framelog: %s %s: %w", op, l.path, err)
	return l.err
}

// Err reports why the log takes no more writes: its sticky error, or
// errClosed once it is closed. Nil while it is writable.
func (l *Log) Err() error {
	if l.err == nil && l.closed {
		return errClosed
	}
	return l.err
}

// Close syncs and closes the file and releases the lock. It returns the
// sticky error, if a write ever failed, on this and every later call.
func (l *Log) Close() error {
	if l.closed {
		return l.err
	}
	if l.err == nil {
		l.Sync() // a failure sticks in l.err
	}
	l.closed = true
	if err := l.f.Close(); err != nil && l.err == nil {
		l.err = fmt.Errorf("framelog: close %s: %w", l.path, err)
	}
	l.lock.Close() // only releases the lock; the file holds no data
	return l.err
}

// Frames returns the number of frames in the log, the ones appended
// but not yet synced included.
func (l *Log) Frames() int64 { return l.frames }

// Pending returns the number of frames appended since the last sync.
func (l *Log) Pending() int { return l.pending }

// Syncs returns the number of fsyncs of the log since Open: Syncs,
// Closes and Rewrites.
func (l *Log) Syncs() int64 { return l.syncs }

// FailWrites makes every later write to the log's file fail with err,
// as a full disk or an I/O error would, so the owner's next Sync fails
// and the failure sticks like any other (see Failure above). Frames
// already appended are flushed to the file first. It is the fault seam
// for tests of a log's owner.
func (l *Log) FailWrites(err error) {
	if ferr := l.w.Flush(); ferr != nil {
		l.fail("flush", ferr)
		return
	}
	l.w.Reset(faultWriter{err})
}

// faultWriter fails every write with err.
type faultWriter struct{ err error }

func (w faultWriter) Write([]byte) (int, error) { return 0, w.err }

// SyncDir fsyncs a directory so that a create or rename within it is
// durable.
func SyncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	return df.Sync()
}

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Decoder reads a payload field by field. The first error sticks:
// later reads return zero values, and Finish reports it.
type Decoder struct {
	B   []byte // the bytes not yet read
	Err error
}

// Uvarint reads one uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.B)
	if n <= 0 {
		d.Err = errors.New("bad uvarint")
		return 0
	}
	d.B = d.B[n:]
	return v
}

// Count reads a uvarint bounded by limit, for counts that size
// allocations or index files.
func (d *Decoder) Count(limit uint64) int {
	v := d.Uvarint()
	if d.Err == nil && v > limit {
		d.Err = fmt.Errorf("count %d exceeds limit %d", v, limit)
		return 0
	}
	return int(v)
}

// Str reads a string written by AppendString.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.Err != nil {
		return ""
	}
	if n > uint64(len(d.B)) {
		d.Err = fmt.Errorf("string length %d exceeds remaining %d bytes", n, len(d.B))
		return ""
	}
	s := string(d.B[:n])
	d.B = d.B[n:]
	return s
}

// Finish reports the first error, or an error when bytes are left.
func (d *Decoder) Finish() error {
	if d.Err != nil {
		return d.Err
	}
	if len(d.B) != 0 {
		return fmt.Errorf("%d trailing bytes", len(d.B))
	}
	return nil
}
