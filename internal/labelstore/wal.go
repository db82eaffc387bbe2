package labelstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"supg/internal/framelog"
)

// The write-ahead log makes paid oracle labels crash-durable: every
// label written through a Cache is appended to an append-only file,
// and Open replays the file into memory on boot — a restarted server
// recovers every label it ever bought with zero oracle re-buys.
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
// Format: a framelog log (frames, torn-tail truncation, compaction and
// fail-stop are that package's), checksummed with CRC32-IEEE and with
// payloads up to 1 MiB. Each payload starts with a one-byte record type:
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

// walFormat frames the log. 1 MiB bounds a payload; the largest
// legitimate one is a cache def with two names.
var walFormat = framelog.Format{Table: crc32.IEEETable, MaxFrame: 1 << 20}

// walCompactMinRecords is the auto-compaction floor: Open rewrites the
// log only when it holds more than this many frames and more than half
// of them are dead (tombstoned or superseded).
const walCompactMinRecords = 1024

var errBadRecord = errors.New("labelstore: malformed wal record")

// wal is the append side of the write-ahead log. All appends are
// serialized under mu, and a logged label's in-memory insert happens
// under mu right before its append, so the log is an ordered journal
// of every label the memory tier accepted. Append and sync failures
// are fail-stop: the log refuses every later write and the first error
// surfaces from Close.
type wal struct {
	store *Store

	mu        sync.Mutex
	log       *framelog.Log
	syncEvery int // 1 = group commit; N > 1 = sync every N frames
	ids       map[*Cache]uint64
	nextID    uint64
}

// openWAL opens (creating if absent) the log at path, replays it into
// s, and returns the append handle plus the number of labels replayed.
func openWAL(s *Store, path string, syncEvery int) (*wal, int64, error) {
	w := &wal{store: s, syncEvery: max(syncEvery, 1), ids: make(map[*Cache]uint64), nextID: 1}
	var (
		replayed int64
		liveID   = make(map[uint64]*Cache)
	)
	log, err := framelog.Open(path, walFormat, func(payload []byte) error {
		return w.apply(payload, liveID, &replayed)
	})
	if err != nil {
		return nil, 0, fmt.Errorf("labelstore: open wal: %w", err)
	}
	w.log = log
	// Adopt the surviving id assignments for the append side, so new
	// labels of an already-defined cache need no fresh def record.
	for id, c := range liveID {
		if !c.dead.Load() {
			w.ids[c] = id
		}
		w.nextID = max(w.nextID, id+1)
	}
	return w, replayed, nil
}

// apply folds one replayed record into the store, counting the labels
// it inserts in replayed, and rejects a structurally invalid one.
func (w *wal) apply(payload []byte, liveID map[uint64]*Cache, replayed *int64) error {
	d := framelog.Decoder{B: payload[1:]}
	switch kind := payload[0]; kind {
	case recCacheDef:
		id, table, oracle := d.Uvarint(), d.Str(), d.Str()
		if d.Err != nil {
			return errBadRecord
		}
		liveID[id] = w.store.Cache(table, oracle)
	case recLabel:
		id, idx := d.Uvarint(), d.Uvarint()
		if d.Err != nil || len(d.B) != 1 {
			return errBadRecord
		}
		// A label referencing a tombstoned (dead) cache is silently
		// dropped by put's dead check — exactly the in-memory semantics
		// of a stale write. Duplicates (possible after a compaction raced
		// an insert) are dropped the same way.
		if c := liveID[id]; c != nil && c.put(int(idx), d.B[0] != 0, nil) {
			*replayed++
		}
	case recTombTable, recTombOracle:
		name := d.Str()
		if d.Err != nil {
			return errBadRecord
		}
		w.store.invalidateMatch(kind, name, false)
	default:
		return errBadRecord
	}
	return nil
}

func encodeDef(id uint64, k Key) []byte {
	b := binary.AppendUvarint([]byte{recCacheDef}, id)
	b = framelog.AppendString(b, k.Table)
	return framelog.AppendString(b, k.Oracle)
}

func encodeLabel(id uint64, i int, v bool) []byte {
	b := binary.AppendUvarint([]byte{recLabel}, id)
	b = binary.AppendUvarint(b, uint64(i))
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendLabelLocked journals one freshly-bought label, writing the
// cache's def record first if this is its first label. Callers hold
// w.mu.
func (w *wal) appendLabelLocked(c *Cache, i int, v bool) {
	// An insert that raced an invalidation may reach here after the
	// tombstone was journaled (kill sets dead before the tombstone
	// append). Logging it would resurrect the label under a fresh def on
	// replay, so it is dropped — matching the memory tier, where kill
	// clears the entry the racing insert produced.
	if w.log.Err() != nil || c.dead.Load() {
		return
	}
	// The id is the cache's only once its def is in the log: a def the
	// log refuses (names over walFormat.MaxFrame) leaves the cache
	// unjournaled, its labels memory-only, rather than journaling labels
	// under an id replay cannot resolve.
	id, ok := w.ids[c]
	if !ok {
		id = w.nextID
		if w.appendLocked(encodeDef(id, c.key)) != nil {
			return
		}
		w.nextID++
		w.ids[c] = id
	}
	w.appendLocked(encodeLabel(id, i, v))
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
	// Under group commit nothing else would sync the tombstone until the
	// next batch; syncing now means a returned invalidation survives a
	// crash, so superseded labels can never resurrect. A tombstone the
	// log refuses names a table or oracle too long for any def, so no
	// journaled label needs it.
	if w.appendLocked(framelog.AppendString([]byte{kind}, name)) == nil && w.syncEvery == 1 {
		w.log.Sync() // a failure sticks in the log and surfaces from Close
	}
}

// appendLocked appends one frame. In relaxed mode it syncs after every
// syncEvery frames; under group commit the frame stays pending until
// the next commit. A failure sticks in the log. Callers hold w.mu.
func (w *wal) appendLocked(payload []byte) error {
	if err := w.log.Append(payload); err != nil {
		return err
	}
	if w.syncEvery > 1 && w.log.Pending() >= w.syncEvery {
		return w.log.Sync()
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
	if w.syncEvery == 1 && w.log.Pending() > 0 {
		w.log.Sync() // a failure sticks in the log and surfaces from Close
	}
}

// compactLocked rewrites the log to hold only the live labels: a fresh
// def per live cache plus its current entries, oldest first, so a
// replay rebuilds each cache's eviction order. Callers hold w.mu, and
// Put takes w.mu before its memory insert, so no journaled label is
// inserted mid-compaction: every pending (unsynced) frame of a label
// still in memory is carried over by the snapshot, which is synced
// before it replaces the log. Pending frames of evicted or invalidated
// labels are dropped with the old log, as their synced frames are.
func (w *wal) compactLocked() error {
	s := w.store
	s.mu.RLock()
	caches := make([]*Cache, 0, len(s.caches))
	for _, c := range s.caches {
		caches = append(caches, c)
	}
	s.mu.RUnlock()
	ids := make(map[*Cache]uint64)
	err := w.log.Rewrite(func(emit func([]byte) error) error {
		for _, c := range caches {
			labels := c.snapshot()
			if len(labels) == 0 {
				continue
			}
			id := uint64(len(ids) + 1)
			ids[c] = id
			if err := emit(encodeDef(id, c.key)); err != nil {
				return err
			}
			for _, l := range labels {
				if err := emit(encodeLabel(id, l.i, l.v)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("labelstore: wal compact: %w", err)
	}
	w.ids, w.nextID = ids, uint64(len(ids)+1)
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
	return w.log.Close()
}

// counts returns the number of frames currently in the file and the
// number of fsyncs of the log since Open.
func (w *wal) counts() (records, syncs int64) {
	if w == nil {
		return 0, 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Frames(), w.log.Syncs()
}
