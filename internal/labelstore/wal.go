package labelstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// The write-ahead log makes paid oracle labels crash-durable: every
// label written through a Cache is appended to an append-only file,
// and Open replays the file into the in-memory shards on boot — a
// restarted server recovers every label it ever bought with zero
// oracle re-buys.
//
// Sync policy. By default the log group-commits: each label is durable
// before the query that bought it uses it, with one fsync per oracle
// batch. Put appends its frame to the buffered writer without syncing,
// and Cache.Commit flushes and fsyncs every pending frame at once.
// oracle.Budgeted commits at the end of every batch, even one served
// entirely from the store, since a hit may be another query's
// still-pending label. A crash can lose only the labels of batches
// still in flight, which no returned answer used. Tombstones sync
// immediately, so an invalidation never un-happens. With
// Options.WALSyncEvery = N > 1 the log instead syncs after every N
// frames and Commit is a no-op. Both policies write the same format.
//
// Format: a sequence of CRC-framed records. Each frame is
//
//	[4-byte LE payload length][4-byte LE CRC32(payload)][payload]
//
// and the payload starts with a one-byte record type:
//
//	recCacheDef   assigns a numeric id to a (table, oracle) pair;
//	              labels reference the id instead of repeating strings
//	recLabel      one bought label: (cache id, record index, label)
//	recTombTable  invalidation tombstone: every cache of the table
//	              (and every earlier label of it) is dead
//	recTombOracle invalidation tombstone for an oracle UDF
//
// Replay applies records in order: tombstones kill the caches (and
// ids) defined before them, so labels bought against a superseded
// registration can never resurrect. A torn or corrupt tail — the
// expected shape of a crash mid-append — is truncated at the last
// whole frame and replay keeps everything before it.
const (
	recCacheDef   byte = 1
	recLabel      byte = 2
	recTombTable  byte = 3
	recTombOracle byte = 4
)

// walMaxFrame bounds a frame payload; anything larger is treated as
// corruption (the largest legitimate payload is a cache-def with two
// names).
const walMaxFrame = 1 << 20

// walCompactMinRecords is the auto-compaction floor: Open rewrites the
// log only when it holds more than this many frames and more than half
// of them are dead (tombstoned or superseded).
const walCompactMinRecords = 1024

// wal is the append side of the write-ahead log. All appends are
// serialized under mu, and a logged label's in-memory insert happens
// under mu right before its append, so the log is an ordered journal
// of every label the memory tier accepted. Append and sync failures
// are fail-stop: the first error disables further appends and surfaces
// from Close.
type wal struct {
	store *Store

	mu        sync.Mutex
	path      string
	f         *os.File
	w         *bufio.Writer
	syncEvery int // 1 = group commit; N > 1 = sync every N frames
	unsynced  int // frames appended since the last sync
	records   int64
	syncs     int64
	ids       map[*Cache]uint64
	nextID    uint64
	err       error
	closed    bool
}

// openWAL opens (creating if absent) the log at path, replays it into
// s, truncates any torn tail, and returns the append handle plus the
// number of labels replayed.
func openWAL(s *Store, path string, syncEvery int) (*wal, int64, error) {
	if syncEvery <= 0 {
		syncEvery = 1
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644) //supg:atomiccommit-ok the WAL is the commit path: frames are CRC-framed and fsynced per sync policy, torn tails are truncated on replay, and a new log's directory is synced below
	if err != nil {
		return nil, 0, fmt.Errorf("labelstore: open wal: %w", err)
	}
	w := &wal{
		store:     s,
		path:      path,
		f:         f,
		syncEvery: syncEvery,
		ids:       make(map[*Cache]uint64),
		nextID:    1,
	}
	replayed, goodOff, err := w.replay()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	// A torn tail is the normal post-crash state: drop it and append
	// from the last whole frame.
	if fi, err := f.Stat(); err == nil && fi.Size() > goodOff {
		if err := f.Truncate(goodOff); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("labelstore: truncate torn wal tail: %w", err)
		}
	}
	// An empty log may be one this call just created. Its directory
	// entry is durable only once the directory is synced; without that
	// a crash could lose the file along with every label later
	// committed to it.
	if goodOff == 0 {
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("labelstore: sync wal dir: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("labelstore: seek wal: %w", err)
	}
	w.w = bufio.NewWriter(f)
	return w, replayed, nil
}

// replay reads every whole frame from the start of the file, applies
// it to the store (bypassing logging), and returns the number of label
// records applied plus the offset just past the last good frame.
func (w *wal) replay() (replayed int64, goodOff int64, err error) {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("labelstore: seek wal: %w", err)
	}
	var (
		r      = bufio.NewReader(w.f)
		hdr    [8]byte
		liveID = make(map[uint64]*Cache)
		defs   = make(map[uint64]Key)
	)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break // EOF or torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n == 0 || n > walMaxFrame {
			break // corrupt length
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
			break // corrupt payload
		}
		if !w.apply(payload, liveID, defs, &replayed) {
			break // structurally invalid record
		}
		goodOff += 8 + int64(n)
		w.records++
	}
	// Adopt the surviving id assignments for the append side, so new
	// labels of an already-defined cache need no fresh def record.
	for id, c := range liveID {
		if !c.dead.Load() {
			w.ids[c] = id
		}
		if id >= w.nextID {
			w.nextID = id + 1
		}
	}
	return replayed, goodOff, nil
}

// apply folds one replayed record into the store. Reports whether the
// record was structurally valid.
func (w *wal) apply(payload []byte, liveID map[uint64]*Cache, defs map[uint64]Key, replayed *int64) bool {
	s := w.store
	switch payload[0] {
	case recCacheDef:
		rest := payload[1:]
		id, rest, ok := readUvarint(rest)
		if !ok {
			return false
		}
		table, rest, ok := readString(rest)
		if !ok {
			return false
		}
		oracle, _, ok := readString(rest)
		if !ok {
			return false
		}
		defs[id] = Key{Table: table, Oracle: oracle}
		liveID[id] = s.Cache(table, oracle)
	case recLabel:
		rest := payload[1:]
		id, rest, ok := readUvarint(rest)
		if !ok {
			return false
		}
		idx, rest, ok := readUvarint(rest)
		if !ok || len(rest) != 1 {
			return false
		}
		if c := liveID[id]; c != nil {
			// A label referencing a tombstoned (dead) cache is silently
			// dropped by put's dead check — exactly the in-memory
			// semantics of a stale write. Duplicates (possible after a
			// compaction raced an insert) are dropped the same way.
			if c.put(int(idx), rest[0] != 0, nil) {
				*replayed++
			}
		}
	case recTombTable:
		name, _, ok := readString(payload[1:])
		if !ok {
			return false
		}
		s.invalidateMatch(func(k Key) bool { return k.Table == name }, false)
	case recTombOracle:
		name, _, ok := readString(payload[1:])
		if !ok {
			return false
		}
		s.invalidateMatch(func(k Key) bool { return k.Oracle == name }, false)
	default:
		return false
	}
	return true
}

// appendLabelLocked journals one freshly-bought label, writing the
// cache's def record first if this is its first label. Callers hold
// w.mu.
func (w *wal) appendLabelLocked(c *Cache, i int, v bool) {
	if w.err != nil || w.closed {
		return
	}
	// An insert that raced an invalidation may reach here after the
	// tombstone was journaled (kill sets dead before the tombstone
	// append). Logging it would resurrect the label under a fresh def on
	// replay, so it is dropped — matching the memory tier, where kill
	// clears the entry the racing insert produced.
	if c.dead.Load() {
		return
	}
	id, ok := w.ids[c]
	if !ok {
		id = w.nextID
		w.nextID++
		w.ids[c] = id
		var def []byte
		def = append(def, recCacheDef)
		def = binary.AppendUvarint(def, id)
		def = appendString(def, c.key.Table)
		def = appendString(def, c.key.Oracle)
		if err := w.appendFrameLocked(def); err != nil {
			w.err = err
			return
		}
	}
	var rec []byte
	rec = append(rec, recLabel)
	rec = binary.AppendUvarint(rec, id)
	rec = binary.AppendUvarint(rec, uint64(i))
	if v {
		rec = append(rec, 1)
	} else {
		rec = append(rec, 0)
	}
	if err := w.appendFrameLocked(rec); err != nil {
		w.err = err
	}
}

// appendTombstone journals an invalidation (kind is recTombTable or
// recTombOracle) and drops the id assignments of the caches it killed,
// so their memory is reclaimable and later labels of a re-created
// cache get a fresh def. Nil-safe.
func (w *wal) appendTombstone(kind byte, name string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for c := range w.ids {
		if c.dead.Load() {
			delete(w.ids, c)
		}
	}
	if w.err != nil || w.closed {
		return
	}
	var rec []byte
	rec = append(rec, kind)
	rec = appendString(rec, name)
	if err := w.appendFrameLocked(rec); err != nil {
		w.err = err
		return
	}
	// Under group commit nothing else would sync the tombstone until the
	// next batch; syncing now means a returned invalidation survives a
	// crash, so superseded labels can never resurrect.
	if w.syncEvery == 1 {
		if err := w.syncLocked(); err != nil {
			w.err = err
		}
	}
}

// appendFrameLocked writes one CRC-framed record to the buffered
// writer. In relaxed mode it syncs after every syncEvery frames; under
// group commit the frame stays pending until the next commit. Callers
// hold w.mu.
func (w *wal) appendFrameLocked(payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("labelstore: wal append: %w", err)
	}
	if _, err := w.w.Write(payload); err != nil {
		return fmt.Errorf("labelstore: wal append: %w", err)
	}
	w.records++
	w.unsynced++
	if w.syncEvery > 1 && w.unsynced >= w.syncEvery {
		return w.syncLocked()
	}
	return nil
}

// commit makes every pending frame durable with one flush and one
// fsync (see Cache.Commit). Nil-safe.
func (w *wal) commit() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.syncEvery > 1 || w.unsynced == 0 || w.err != nil || w.closed {
		return
	}
	if err := w.syncLocked(); err != nil {
		w.err = err
	}
}

// syncLocked flushes the buffered frames and fsyncs the log. Callers
// hold w.mu.
func (w *wal) syncLocked() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("labelstore: wal flush: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("labelstore: wal sync: %w", err)
	}
	w.unsynced = 0
	w.syncs++
	return nil
}

// compactLocked rewrites the log to hold only the live labels: a fresh
// def per live cache plus its current entries, written to a temp file
// that atomically replaces the old log. Callers hold w.mu, and Put
// takes w.mu before its memory insert, so no journaled label is
// inserted mid-compaction: every pending (unsynced) frame of a label
// still in memory is carried over by the snapshot, which is synced
// before it replaces the log. Pending frames of evicted or invalidated
// labels are dropped with the old log, as their synced frames are.
func (w *wal) compactLocked() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("labelstore: wal closed")
	}
	s := w.store
	s.mu.RLock()
	caches := make([]*Cache, 0, len(s.caches))
	for _, c := range s.caches {
		caches = append(caches, c)
	}
	s.mu.RUnlock()

	tmpPath := w.path + ".compact"
	tmp, err := os.Create(tmpPath) //supg:atomiccommit-ok compaction's tmp file; fsynced below, then renamed over the WAL
	if err != nil {
		return fmt.Errorf("labelstore: wal compact: %w", err)
	}
	renamed := false
	defer func() {
		if !renamed {
			tmp.Close()
			os.Remove(tmpPath)
		}
	}()
	bw := bufio.NewWriter(tmp)
	var (
		records int64
		ids     = make(map[*Cache]uint64)
		nextID  = uint64(1)
	)
	writeFrame := func(payload []byte) error {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		_, err := bw.Write(payload)
		records++
		return err
	}
	for _, c := range caches {
		if c.dead.Load() {
			continue
		}
		var id uint64
		for si := range c.shards {
			sh := &c.shards[si]
			sh.mu.Lock()
			snap := make(map[int]bool, len(sh.m))
			for k, v := range sh.m {
				snap[k] = v
			}
			sh.mu.Unlock()
			for k, v := range snap {
				if id == 0 {
					id = nextID
					nextID++
					var def []byte
					def = append(def, recCacheDef)
					def = binary.AppendUvarint(def, id)
					def = appendString(def, c.key.Table)
					def = appendString(def, c.key.Oracle)
					if err := writeFrame(def); err != nil {
						return fmt.Errorf("labelstore: wal compact: %w", err)
					}
				}
				var rec []byte
				rec = append(rec, recLabel)
				rec = binary.AppendUvarint(rec, id)
				rec = binary.AppendUvarint(rec, uint64(k))
				if v {
					rec = append(rec, 1)
				} else {
					rec = append(rec, 0)
				}
				if err := writeFrame(rec); err != nil {
					return fmt.Errorf("labelstore: wal compact: %w", err)
				}
			}
		}
		if id != 0 {
			ids[c] = id
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("labelstore: wal compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("labelstore: wal compact: %w", err)
	}
	w.syncs++
	if err := os.Rename(tmpPath, w.path); err != nil { //supg:atomiccommit-ok this IS the compaction commit point: tmp was fsynced above and the directory is synced right after
		return fmt.Errorf("labelstore: wal compact: %w", err)
	}
	// The old handle now names an unlinked file; the still-open tmp
	// handle, positioned at its end, is the log from here on.
	renamed = true
	w.f.Close()
	w.f = tmp
	w.w = bufio.NewWriter(tmp)
	w.unsynced = 0
	w.records = records
	w.ids = ids
	w.nextID = nextID
	// Until the directory is synced a crash can bring the old log back
	// and drop labels committed to the new one, so a failure here is
	// fail-stop like a failed append.
	if err := syncDir(filepath.Dir(w.path)); err != nil {
		w.err = fmt.Errorf("labelstore: wal compact: sync dir: %w", err)
		return w.err
	}
	return nil
}

// close flushes, syncs, and closes the log. Idempotent; returns the
// first append error if one was recorded.
func (w *wal) close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err == nil {
		w.err = w.syncLocked()
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = fmt.Errorf("labelstore: wal close: %w", err)
	}
	return w.err
}

// counts returns the number of frames currently in the file and the
// number of fsyncs of the log since Open.
func (w *wal) counts() (records, syncs int64) {
	if w == nil {
		return 0, 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records, w.syncs
}

// syncDir fsyncs a directory so that a create or rename within it is
// durable.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	return df.Sync()
}

// appendString writes a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// readUvarint consumes a uvarint from b.
func readUvarint(b []byte) (v uint64, rest []byte, ok bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, false
	}
	return v, b[n:], true
}

// readString consumes a length-prefixed string from b.
func readString(b []byte) (s string, rest []byte, ok bool) {
	n, b, ok := readUvarint(b)
	if !ok || uint64(len(b)) < n {
		return "", nil, false
	}
	return string(b[:n]), b[n:], true
}
