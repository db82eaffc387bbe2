// Package storage is the durable tier under the query engine: a
// write-once, CRC-verified on-disk format for datasets, index score
// columns, per-segment (score, id) permutations and cached IS sampling
// mixtures, plus an append-only MANIFEST log (an internal/framelog log,
// framed like the label store's WAL) that records which files are live
// for each (table, score source). The contract is zero-rescan
// recovery with byte-identical results: Open replays the manifest and
// loads every table, and stages every index with a loader; the first
// query that needs an index mmaps its files back into segment views and
// re-proves (never re-computes) each permutation, so a restarted
// process answers queries bit-for-bit the same as before the crash
// while invoking zero proxy UDFs and performing zero permutation sorts.
// An index no query reads is never mapped or checked.
//
// # Chunks
//
// A table's dataset and every index's score column are each stored as
// an ordered list of immutable chunk files keyed by base, as segment
// files are: chunk k holds records [base_k, base_k+count_k) and the
// chunks tile the column from 0. A registration or a fresh build writes
// one chunk holding everything. An append writes only its tail:
// AppendDataset adds one dataset chunk with the new records, and the
// next SaveIndex of a grown index keeps the column's chunks and writes
// one chunk for the new rows, next to the new segment files. So the
// bytes an append writes scale with the append, not the table. Open
// adopts a one-chunk column zero-copy from its mapping, and copies a
// column of several chunks into heap memory once: the O(n) cost moves
// from every append to the next boot of a table that grew. Chunks are
// never merged (compaction rewrites records, not files).
//
// # Sampling mixtures
//
// The IS estimators draw from a defensive mixture of proxy weights
// whose Vose alias table is the most expensive thing a first query
// computes. SaveMixtures checkpoints an index's cached mixtures as
// write-once .mix files, each under a recMixture manifest record bound
// to the index record (table, source, record count, column CRC); the
// engine calls it at clean shutdown only, so nothing is written on the
// query or append path. Open maps nothing for them: a recovered index
// carries one lazy loader per stored mixture, which verifies size, CRC
// and structure the first time a query asks for that (exponent, mix)
// key — a mixture no query uses is never read. A mixture that fails
// verification is tombstoned (recDropMixture) and the index rebuilds it
// from its column, with identical draws. An index flush that grows the
// column (an append) makes its old mixtures dead; they are dropped with
// the flush and rebuilt on demand, as is everything after a crash,
// which skips the shutdown checkpoint. Downgrade note: a binary from
// before mixture records stops manifest replay at the first recMixture
// record, as it does at recIndexQ, and truncates the log there; the
// state it loses is rebuilt, never served wrong. The same holds for a
// binary from before chunks at the first chunk record.
//
// Crash discipline, in order of commit:
//
//  1. data files are written to *.tmp, fsynced, renamed into place,
//     and the directory fsynced;
//  2. only then is a manifest record referencing them appended (and
//     fsynced);
//  3. only then are the files the record supersedes deleted.
//
// Steps 2 and 3 are one commit step that every catalog change takes
// (commitLocked): under the store's lock it checks that the store takes
// writes and that the writer's precondition still holds (the table's
// length for an append, its epoch for an index flush, the index record
// a mixture binds to), appends the record, folds it into the catalog,
// and deletes exactly the files the fold reports superseded; a commit
// that fails deletes the files its writer wrote instead. The only other
// record writer is recovery's tombstone, whose files the boot-time
// orphan sweep deletes.
//
// A crash between (1) and (2), or before (3) ends, leaves orphan files
// that boot-time cleanup removes; a crash during (1) leaves *.tmp
// litter, also removed; a crash mid-append leaves a torn manifest tail,
// truncated at the last whole record. A manifest read that fails
// before its end fails Open, which then truncates and sweeps nothing.
// Any file whose size or CRC32 disagrees with its manifest record — and
// any permutation that fails the O(n) ascent proof — causes that table
// or index to be dropped (durably) rather than served: a table at Open
// (recovery's tombstone), an index when its first use checks it (a
// commit step, as for a bad mixture), and the engine rebuilds it. One
// bad chunk drops its whole table or index, never leaves a gap. A
// failed manifest write, or a compaction whose rename cannot be made
// durable, stops every later store write (fail-stop).
package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/sampling"
)

// Options configures a Store.
type Options struct {
	// Dir is the persistence directory (created if absent).
	Dir string
	// NoMmap forces heap loads with portable decoding even on
	// platforms that support zero-copy mapping.
	NoMmap bool
	// Index supplies the segment size and parallelism recovered
	// indexes use for verification and future appends.
	Index index.Options
}

// ErrSuperseded reports that a SaveIndex was abandoned because the
// table's epoch advanced (a drop or re-registration happened) between
// the snapshot and the commit. Not an error condition: the caller's
// state was intentionally invalidated and must not be resurrected.
var ErrSuperseded = fmt.Errorf("storage: index flush superseded by invalidation")

// IndexMeta is the provenance of a persisted index: enough for the
// engine to re-adopt it after a restart, and to invalidate it when a
// constituent is re-registered.
type IndexMeta struct {
	Table       string
	Source      string // ScoreSource cache key
	Fusion      string // query.FusionKind string form
	CalibOracle string // calibration oracle name, "" if uncalibrated
	Proxies     []string
}

// RecoveredTable is a dataset restored from disk at Open.
type RecoveredTable struct {
	Name    string
	Dataset *dataset.Dataset
	CRC     uint32 // CRC32 (Castagnoli) of the dataset's binary form
}

// RecoveredIndex is an index record Open staged: its provenance and
// length, read from the manifest, and Load, which maps (or reads) its
// files and checks them on first use — the size and CRC of every column
// chunk and segment file, the headers, and each permutation's O(n)
// ascent proof — never re-sorting. Load runs once; concurrent and later
// calls share its result. An index that fails the checks is dropped
// durably and noted in Stats().Degraded, and Load returns the error. A
// record that was dropped or re-flushed since Open yields ErrSuperseded.
type RecoveredIndex struct {
	IndexMeta
	Len  int // records the index covers
	Load func() (*index.ScoreIndex, error)
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	TablesLive   int
	IndexesLive  int
	SegmentsLive int

	MixturesLive int

	TablesRecovered int
	// IndexesRecovered and SegmentsRecovered count the index records
	// Open staged and their segments; each index is checked when first
	// loaded (RecoveredIndex.Load).
	IndexesRecovered  int
	SegmentsRecovered int
	// MixturesRecovered counts the stored sampling mixtures attached
	// to recovered indexes (adopted lazily, on first use).
	MixturesRecovered int

	// SegmentsPersisted counts the segment files SaveIndex wrote since
	// Open.
	SegmentsPersisted int64

	// MappedBytes counts the bytes of the files mapped so far: a
	// one-chunk dataset at Open, an index's files when it is first
	// loaded, a stored mixture when a query first asks for it.
	MappedBytes     int64
	RecoveryElapsed time.Duration
	ManifestRecords int64
	Compactions     int64

	// Degraded lists human-readable notes about state that was present
	// in the manifest but could not be served (corrupt or torn files)
	// and was dropped in favor of a rebuild: found at Open for tables,
	// on first use for indexes and mixtures.
	Degraded []string
}

// Store owns a persistence directory: the MANIFEST log plus write-once
// dataset/column/segment files.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	man    *manifest
	st     manifestState
	epochs map[string]uint64
	seq    uint64
	closed bool
	// indexOf maps each live index record to the in-memory index it was
	// flushed from or loaded as, so SaveMixtures can prove that a
	// mixture's tables belong to the column the record describes.
	indexOf map[ixKey]*index.ScoreIndex

	segmentsPersisted int64
	mappedBytes       int64
	compactions       int64
	// degraded grows at Open and with every first-use check that fails.
	degraded []string

	// Recovery products, immutable after Open.
	recTables   []RecoveredTable
	recIndexes  []RecoveredIndex
	recSegments int
	recMixtures int
	recElapsed  time.Duration
}

// Open replays dir's manifest, loads and verifies every live table
// (mmap'd when the platform allows), stages every live index for its
// first use without reading its files (RecoveredIndexes), removes crash
// litter and orphan files, and returns the store ready for appends.
// Corrupt state is dropped — durably, and reported via Stats().Degraded
// — never served. While another Store is open on dir, Open fails with an
// error that matches framelog.ErrLocked and removes nothing: the other
// store's half-written and not yet recorded files are not litter.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("storage: no directory configured")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", opts.Dir, err)
	}
	start := time.Now()
	man, st, err := openManifest(opts.Dir)
	if err != nil {
		return nil, err
	}
	removeCrashLitter(opts.Dir)
	s := &Store{
		dir:     opts.Dir,
		opts:    opts,
		man:     man,
		st:      st,
		epochs:  make(map[string]uint64),
		indexOf: make(map[ixKey]*index.ScoreIndex),
	}
	s.loadCatalog()
	s.initSeq()
	s.sweepOrphans()
	if s.man.shouldCompact(s.st.live()) {
		if err := s.man.compact(s.st); err == nil {
			s.compactions++
		}
	}
	s.recElapsed = time.Since(start)
	return s, nil
}

// removeCrashLitter deletes the half-written *.tmp data files a crash
// may have left behind (opening the manifest removes an uncommitted
// MANIFEST.compact).
func removeCrashLitter(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// loadCatalog loads every live table, dropping (with a durable
// tombstone) any that fails verification, and stages every live index
// whose record fits its table, leaving its files to its first use.
func (s *Store) loadCatalog() {
	for _, name := range s.st.tableNames() {
		d, crc, err := s.loadDataset(s.st.tables[name])
		if err != nil {
			s.degrade(fmt.Sprintf("table %s: %v", name, err))
			s.tombstone(encodeDropTable(name), recDropTable, name)
			continue
		}
		s.recTables = append(s.recTables, RecoveredTable{Name: name, Dataset: d, CRC: crc})
	}
	for _, k := range s.st.indexKeys() {
		rec := s.st.indexes[k]
		tbl, ok := s.st.tables[k.table]
		if !ok {
			// Table was dropped (possibly just above); the index goes
			// with it — recDropTable already covers it in the catalog.
			continue
		}
		if rec.n > tbl.records() {
			s.degrade(fmt.Sprintf("index %s/%s: index covers %d rows but table has %d", k.table, k.source, rec.n, tbl.records()))
			s.tombstone(encodeDropIndex(k), recDropIndex, k)
			continue
		}
		for mk := range s.st.mixtures {
			if mk.ixKey == k {
				s.recMixtures++
			}
		}
		s.recIndexes = append(s.recIndexes, RecoveredIndex{
			IndexMeta: IndexMeta{
				Table:       rec.table,
				Source:      rec.source,
				Fusion:      rec.fusion,
				CalibOracle: rec.calibOracle,
				Proxies:     rec.proxies,
			},
			Len: rec.n,
			Load: sync.OnceValues(func() (*index.ScoreIndex, error) {
				return s.loadStaged(k, rec)
			}),
		})
		s.recSegments += len(rec.segs)
	}
}

// loadStaged is the first-use check of the index record rec that Open
// staged for k. It loads and verifies the record's files (loadIndex),
// handing over the loaders of the index's stored mixtures as the
// catalog lists them now, and binds the index to the record. A record
// that was dropped or re-flushed meanwhile yields ErrSuperseded. One
// that fails the checks is dropped durably, as rejectMixture drops a
// bad mixture, so no later boot reads it again, and its error is
// returned.
func (s *Store) loadStaged(k ixKey, rec indexRec) (*index.ScoreIndex, error) {
	s.mu.Lock()
	if !s.isLiveLocked(k, rec) {
		s.mu.Unlock()
		return nil, ErrSuperseded
	}
	mixes := s.storedMixtures(k)
	s.mu.Unlock()

	ix, err := s.loadIndex(rec, mixes)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.isLiveLocked(k, rec) {
		// A drop or a newer flush landed during the load; it stands.
		return nil, ErrSuperseded
	}
	if err != nil {
		s.degrade(fmt.Sprintf("index %s/%s: %v", k.table, k.source, err))
		// A store that takes no more writes keeps the record: the next
		// boot stages it again and its first use re-checks it.
		_ = s.commitLocked(nil, nil, encodeDropIndex(k), recDropIndex, k)
		return nil, err
	}
	s.indexOf[k] = ix
	return ix, nil
}

// isLiveLocked reports whether rec is still the live record of index
// k: the same rows over the same column chunk and segment files.
// Called with s.mu held.
func (s *Store) isLiveLocked(k ixKey, rec indexRec) bool {
	cur, ok := s.st.indexes[k]
	return ok && cur.n == rec.n && slices.Equal(cur.cols, rec.cols) && slices.Equal(cur.segs, rec.segs)
}

func (s *Store) degrade(note string) {
	s.degraded = append(s.degraded, note)
}

// tombstone durably records a drop discovered during recovery. File
// removal is left to the orphan sweep that follows catalog loading.
func (s *Store) tombstone(payload []byte, rtype byte, rec any) {
	if err := s.man.appendRecord(payload); err != nil {
		// The drop still applies in memory; a re-crash just rediscovers
		// the same corruption on the next boot.
		s.degrade(fmt.Sprintf("tombstone append failed: %v", err))
	}
	s.st.fold(rtype, rec, false)
}

// loadDataset maps (or reads) and verifies a table's dataset chunks,
// and returns the dataset with its identity, the CRC of its whole
// binary form. A one-chunk dataset's scores ride the mapping zero-copy
// and its identity is the file's CRC; the chunks of a grown table are
// copied into one heap column and hashed once.
func (s *Store) loadDataset(rec datasetRec) (*dataset.Dataset, uint32, error) {
	if len(rec.chunks) == 1 {
		c := rec.chunks[0]
		d, err := s.loadDatasetFile(rec.name, c)
		return d, c.crc, err
	}
	n := rec.records()
	scores, labels := make([]float64, n), make([]bool, n)
	for _, c := range rec.chunks {
		err := s.copyVerified(c.file, c.size, c.crc, func(data []byte) error {
			df, err := parseDatasetChunk(data, c)
			if err != nil {
				return err
			}
			decodeFloat64sInto(scores[c.base:], df.scores)
			decodeLabelBits(labels[c.base:c.base+c.count], df.labelBits)
			return nil
		})
		if err != nil {
			return nil, 0, fmt.Errorf("chunk %s: %w", c.file, err)
		}
	}
	d, err := dataset.FromColumns(rec.name, scores, labels)
	if err != nil {
		return nil, 0, err
	}
	return d, DatasetCRC(d), nil
}

// loadDatasetFile loads a table stored as the one dataset file c. A
// load that fails releases and uncounts the file's mapping.
func (s *Store) loadDatasetFile(name string, c chunkRec) (d *dataset.Dataset, err error) {
	data, mapped, err := s.loadVerified(c.file, c.size, c.crc)
	if err != nil {
		return nil, err
	}
	if mapped {
		defer func() {
			if err != nil {
				s.unmap([][]byte{data})
			}
		}()
	}
	df, err := parseDatasetChunk(data, c)
	if err != nil {
		return nil, err
	}
	var scores []float64
	if mapped {
		scores = aliasFloat64s(df.scores)
	} else {
		scores = decodeFloat64s(df.scores)
	}
	// Labels are always decoded to the heap (bit-unpacking is required
	// either way). The CRC check above stands in for New's per-record
	// range scan.
	labels := make([]bool, df.count)
	decodeLabelBits(labels, df.labelBits)
	return dataset.FromColumns(name, scores, labels)
}

// parseDatasetChunk parses one dataset chunk file and checks its record
// count against the manifest.
func parseDatasetChunk(data []byte, c chunkRec) (datasetFile, error) {
	df, err := parseDatasetFile(data)
	if err == nil && df.count != c.count {
		err = fmt.Errorf("dataset file holds %d records, manifest says %d", df.count, c.count)
	}
	return df, err
}

// parseColumnChunk parses one column chunk file and checks its score
// count against the manifest.
func parseColumnChunk(data []byte, c chunkRec) (columnFile, error) {
	cf, err := parseColumnFile(data)
	if err == nil && cf.count != c.count {
		err = fmt.Errorf("column file holds %d scores, manifest says %d", cf.count, c.count)
	}
	return cf, err
}

// loadIndex maps (or reads) one index's column and segment files and
// reconstructs the ScoreIndex via FromExternal's verification — zero
// sorts, zero proxy calls, byte-identical or rejected. A one-chunk
// column is adopted from its mapping; a chunked one is copied into heap
// memory. mixes are the index's stored sampling mixtures, handed over
// unread. It runs when a query first needs the index, never at Open. A
// load that fails releases and uncounts every file it mapped.
func (s *Store) loadIndex(rec indexRec, mixes []index.StoredMixture) (ix *index.ScoreIndex, err error) {
	var column []float64
	// The mappings the index aliases, which pin them as its backing.
	maps := make([][]byte, 0, len(rec.segs)+1)
	defer func() {
		if err != nil {
			s.unmap(maps)
		}
	}()
	if len(rec.cols) == 1 {
		c := rec.cols[0]
		colData, colMapped, err := s.loadVerified(c.file, c.size, c.crc)
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", c.file, err)
		}
		if colMapped {
			maps = append(maps, colData)
		}
		cf, err := parseColumnChunk(colData, c)
		if err != nil {
			return nil, err
		}
		if colMapped {
			column = aliasFloat64s(cf.scores)
		} else {
			column = decodeFloat64s(cf.scores)
		}
	} else {
		column = make([]float64, rec.n)
		for _, c := range rec.cols {
			err := s.copyVerified(c.file, c.size, c.crc, func(data []byte) error {
				cf, err := parseColumnChunk(data, c)
				if err == nil {
					decodeFloat64sInto(column[c.base:], cf.scores)
				}
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("column %s: %w", c.file, err)
			}
		}
	}
	segs := make([]index.SegmentData, len(rec.segs))
	for i, sr := range rec.segs {
		data, mapped, err := s.loadVerified(sr.file, sr.size, sr.crc)
		if err != nil {
			return nil, fmt.Errorf("segment %s: %w", sr.file, err)
		}
		if mapped {
			maps = append(maps, data)
		}
		sf, err := parseSegmentFile(data)
		if err != nil {
			return nil, fmt.Errorf("segment %s: %w", sr.file, err)
		}
		if sf.base != sr.base || sf.count != sr.count {
			return nil, fmt.Errorf("segment %s header (%d,%d) disagrees with manifest (%d,%d)",
				sr.file, sf.base, sf.count, sr.base, sr.count)
		}
		// A legacy recIndexQ segment's .qcv sibling is never read: the
		// index is adopted from its verified .seg and .col files alone.
		if mapped {
			segs[i] = index.SegmentData{Base: sf.base, Perm: aliasInts(sf.perm), Sorted: aliasFloat64s(sf.sorted)}
		} else {
			segs[i] = index.SegmentData{Base: sf.base, Perm: decodeInts(sf.perm), Sorted: decodeFloat64s(sf.sorted)}
		}
	}
	return index.FromExternal(index.External{Column: column, Segments: segs, Backing: maps, Mixtures: mixes}, s.opts.Index)
}

// storedMixtures returns lazy loaders for the live mixtures of index k.
// Called with s.mu held.
func (s *Store) storedMixtures(k ixKey) []index.StoredMixture {
	var out []index.StoredMixture
	for mk, rec := range s.st.mixtures {
		if mk.ixKey != k {
			continue
		}
		rec := rec
		out = append(out, index.StoredMixture{
			Key: index.MixtureKey{Exponent: rec.exponent, Mix: rec.mix},
			Load: func() ([]float64, *sampling.Alias, error) {
				w, a, err := s.loadMixture(rec)
				if err != nil {
					s.rejectMixture(rec, err)
				}
				return w, a, err
			},
		})
	}
	return out
}

// loadMixture maps (or reads) one mixture file and checks it against
// its record: exact size and CRC, header key and count, and in-bounds
// alias tables (what keeps every draw inside the column). The weight
// values are trusted on the CRC, like every other persisted float. It
// runs when a query first asks for the mixture, never at Open. A load
// that fails releases and uncounts the file's mapping.
func (s *Store) loadMixture(rec mixRec) (weights []float64, a *sampling.Alias, err error) {
	data, mapped, err := s.loadVerified(rec.file, rec.size, rec.crc)
	if err != nil {
		return nil, nil, err
	}
	if mapped {
		defer func() {
			if err != nil {
				s.unmap([][]byte{data})
			}
		}()
	}
	mf, err := parseMixtureFile(data)
	if err != nil {
		return nil, nil, err
	}
	if mf.count != rec.n || math.Float64bits(mf.exponent) != math.Float64bits(rec.exponent) ||
		math.Float64bits(mf.mix) != math.Float64bits(rec.mix) {
		return nil, nil, fmt.Errorf("mixture file holds key (%g, %g) over %d rows, manifest says (%g, %g) over %d",
			mf.exponent, mf.mix, mf.count, rec.exponent, rec.mix, rec.n)
	}
	var prob []float64
	var alias []int32
	if mapped {
		weights, prob, alias = aliasFloat64s(mf.weights), aliasFloat64s(mf.prob), aliasInt32s(mf.alias)
	} else {
		weights, prob, alias = decodeFloat64s(mf.weights), decodeFloat64s(mf.prob), decodeInt32s(mf.alias)
	}
	if a, err = sampling.AliasFromTables(prob, alias); err != nil {
		return nil, nil, err
	}
	return weights, a, nil
}

// rejectMixture durably drops a stored mixture that failed
// verification; the index rebuilds it in memory.
func (s *Store) rejectMixture(rec mixRec, cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.degrade(fmt.Sprintf("mixture %s/%s (%g, %g): %v", rec.table, rec.source, rec.exponent, rec.mix, cause))
	k := rec.key()
	// A mixture superseded meanwhile, or a store that takes no more
	// writes, is left as it is: the next boot re-checks anything left.
	_ = s.commitLocked(nil, func() error {
		if cur, ok := s.st.mixtures[k]; !ok || cur.file != rec.file {
			return ErrSuperseded
		}
		return nil
	}, encodeDropMixture(k), recDropMixture, k)
}

// loadVerified loads one named file and checks its exact size and
// CRC32 against the manifest record before any byte is trusted. The
// second return reports whether the bytes are a shared mapping (alias,
// never copy) or heap (decode). A mapping that fails the checks is
// released.
func (s *Store) loadVerified(name string, wantSize int64, wantCRC uint32) ([]byte, bool, error) {
	data, mapped, err := s.readVerified(name, wantSize, wantCRC)
	if err != nil || !mapped {
		return data, mapped, err
	}
	s.mu.Lock()
	s.mappedBytes += int64(len(data))
	s.mu.Unlock()
	return data, mapped, nil
}

// unmap releases mappings that loadVerified counted and that a load
// which failed part-way made: nothing aliases them yet.
func (s *Store) unmap(maps [][]byte) {
	var n int64
	for _, b := range maps {
		n += int64(len(b))
		unmapFile(b)
	}
	s.mu.Lock()
	s.mappedBytes -= n
	s.mu.Unlock()
}

// copyVerified loads and verifies one named file like loadVerified and
// hands its bytes to use, which must copy out what it keeps: a mapping
// is released when use returns.
func (s *Store) copyVerified(name string, wantSize int64, wantCRC uint32, use func([]byte) error) error {
	data, mapped, err := s.readVerified(name, wantSize, wantCRC)
	if err != nil {
		return err
	}
	if mapped {
		defer unmapFile(data)
	}
	return use(data)
}

// readVerified maps (or reads) one named file and checks its exact size
// and CRC32; a mapping that fails the checks is released.
func (s *Store) readVerified(name string, wantSize int64, wantCRC uint32) ([]byte, bool, error) {
	if err := checkFileName(name); err != nil {
		return nil, false, err
	}
	path := filepath.Join(s.dir, name)
	mapped := false
	var data []byte
	if mmapSupported && !s.opts.NoMmap {
		if b, err := mapFile(path); err == nil {
			data, mapped = b, true
		}
	}
	if !mapped {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, false, err
		}
		data = b
	}
	var err error
	if int64(len(data)) != wantSize {
		err = fmt.Errorf("file is %d bytes, manifest says %d", len(data), wantSize)
	} else if got := crc32.Checksum(data, castagnoli); got != wantCRC {
		err = fmt.Errorf("CRC mismatch (got %08x, manifest says %08x)", got, wantCRC)
	}
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, false, err
	}
	return data, mapped, nil
}

// checkFileName rejects manifest-supplied file names that could escape
// the persistence directory.
func checkFileName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("invalid file name %q", name)
	}
	return nil
}

// initSeq seeds the file-name sequence above every number in use.
func (s *Store) initSeq() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		dot := strings.IndexByte(name, '.')
		if dot <= 0 {
			continue
		}
		if n, err := strconv.ParseUint(name[:dot], 10, 64); err == nil && n > s.seq {
			s.seq = n
		}
	}
}

// sweepOrphans removes data files the live catalog no longer (or never
// did) reference — the residue of crashes between file commit and
// manifest append, and of drops whose removal was interrupted.
func (s *Store) sweepOrphans() {
	referenced := s.st.files()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if referenced[name] {
			continue
		}
		switch filepath.Ext(name) {
		case ".ds", ".col", ".seg", ".qcv", ".mix":
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

func (s *Store) nextFileLocked(ext string) string {
	s.seq++
	return fmt.Sprintf("%06d%s", s.seq, ext)
}

// RecoveredTables returns the datasets restored at Open, sorted by name.
func (s *Store) RecoveredTables() []RecoveredTable { return s.recTables }

// RecoveredIndexes returns the index records Open staged, sorted by
// table, then source. Each one's files are checked by its Load, on
// first use.
func (s *Store) RecoveredIndexes() []RecoveredIndex { return s.recIndexes }

// Epoch returns the table's invalidation epoch. Capture it before
// building an index; pass it to SaveIndex so a drop that raced the
// build cannot be overwritten by a stale flush.
func (s *Store) Epoch(table string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochs[table]
}

// Stats returns a point-in-time summary. Its recovery counts describe
// what Open restored and staged; MappedBytes and Degraded also grow
// with the first-use loads of indexes and mixtures.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs := 0
	for _, rec := range s.st.indexes {
		segs += len(rec.segs)
	}
	return Stats{
		TablesLive:        len(s.st.tables),
		IndexesLive:       len(s.st.indexes),
		SegmentsLive:      segs,
		MixturesLive:      len(s.st.mixtures),
		TablesRecovered:   len(s.recTables),
		IndexesRecovered:  len(s.recIndexes),
		SegmentsRecovered: s.recSegments,
		MixturesRecovered: s.recMixtures,
		SegmentsPersisted: s.segmentsPersisted,
		MappedBytes:       s.mappedBytes,
		RecoveryElapsed:   s.recElapsed,
		ManifestRecords:   s.man.Frames(),
		Compactions:       s.compactions,
		Degraded:          append([]string(nil), s.degraded...),
	}
}

// DatasetCRC computes the CRC32 (Castagnoli) of d's binary interchange
// form without materializing it — the identity the manifest records for
// a persisted dataset, usable to recognize a re-registration of
// identical content.
func DatasetCRC(d *dataset.Dataset) uint32 {
	h := crc32.New(castagnoli)
	dataset.WriteBinary(h, d) // hash writers cannot fail
	return h.Sum32()
}

// SaveDataset persists a table's dataset whole, as the table's only
// chunk, and commits it to the manifest, superseding (and deleting)
// every previous chunk file for the name. Index records for the table
// are left alone. An append should call AppendDataset, which writes
// only the new records.
func (s *Store) SaveDataset(name string, d *dataset.Dataset) error {
	file, err := s.newFile(".ds")
	if err != nil {
		return err
	}
	crc, size, err := writeDatasetFile(filepath.Join(s.dir, file), d)
	if err != nil {
		return fmt.Errorf("storage: persist dataset %s: %w", name, err)
	}
	c := chunkRec{file: file, count: d.Len(), crc: crc, size: size}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked([]string{file}, nil, encodeDataset(name, c), recDataset, datasetRec{name: name, chunks: []chunkRec{c}})
}

// errNotTail reports that an appended chunk no longer starts where the
// store's live dataset ends.
var errNotTail = errors.New("storage: stored table does not end at the chunk's base")

// AppendDataset persists the records [base, d.Len()) that an append
// added to a table of base records, as one new chunk of the table's
// dataset: the bytes written scale with the append, not the table. The
// chunk is durable (fsynced, renamed, directory synced) before its
// record is appended and fsynced. When the store's live dataset for
// name does not hold exactly base records — none was persisted, or an
// earlier write failed — it writes d whole instead (SaveDataset), so
// the catalog never has a gap. Index records are left alone: lineages
// survive appends.
func (s *Store) AppendDataset(name string, d *dataset.Dataset, base int) error {
	if base <= 0 || base >= d.Len() {
		return s.SaveDataset(name, d)
	}
	file, err := s.newFile(".ds")
	if err != nil {
		return err
	}
	crc, size, err := writeDatasetFile(filepath.Join(s.dir, file), d.Slice(base, d.Len()))
	if err != nil {
		return fmt.Errorf("storage: persist dataset chunk %s: %w", name, err)
	}
	c := chunkRec{file: file, base: base, count: d.Len() - base, crc: crc, size: size}
	s.mu.Lock()
	err = s.commitLocked([]string{file}, func() error {
		if s.st.tables[name].records() != base {
			return errNotTail
		}
		return nil
	}, encodeDatasetChunk(name, c), recDatasetChunk, tableChunk{name: name, chunk: c})
	s.mu.Unlock()
	if errors.Is(err, errNotTail) {
		return s.SaveDataset(name, d)
	}
	return err
}

// SaveIndex persists an index built for meta's (table, source) at the
// given epoch: its score column as chunk files plus one file per
// segment, committed as a single manifest record. Files from a previous
// flush of the same lineage are reused — segments by (base, count),
// column chunks while they hold a prefix of the column — so an
// append-grown index writes only one column chunk for its new rows and
// its new segments. A reused segment of a legacy recIndexQ record loses
// its .qcv reference, so the new record is a float one and the old
// .qcv files go with the superseded record once it commits. Returns
// ErrSuperseded (after deleting anything it wrote) if the table's epoch
// advanced, i.e. an invalidation raced the build.
func (s *Store) SaveIndex(meta IndexMeta, ix *index.ScoreIndex, epoch uint64) error {
	key := ixKey{meta.Table, meta.Source}
	current := func() error {
		if s.epochs[meta.Table] != epoch {
			return ErrSuperseded
		}
		return nil
	}

	s.mu.Lock()
	err := s.writableLocked()
	if err == nil {
		err = current()
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	old, hadOld := s.st.indexes[key]
	reuse := make(map[[2]int]segRec, len(old.segs))
	for _, sr := range old.segs {
		reuse[[2]int{sr.base, sr.count}] = sr
	}
	segs := make([]segRec, ix.Segments())
	var fresh []int // the segments to write
	for i := range segs {
		sd := ix.SegmentView(i)
		if sr, ok := reuse[[2]int{sd.Base, len(sd.Perm)}]; ok {
			// The immutable .seg file is reusable. A legacy .qcv sibling
			// is dropped from the record, so the commit deletes it.
			sr.codeFile, sr.codeCRC, sr.codeSize = "", 0, 0
			segs[i] = sr
			continue
		}
		segs[i] = segRec{file: s.nextFileLocked(".seg"), base: sd.Base, count: len(sd.Perm)}
		fresh = append(fresh, i)
	}
	// The column: reuse it whole when unchanged, extend it by one chunk
	// when it grew, else write it as one chunk.
	var cols []chunkRec
	writeCol := true
	switch {
	case hadOld && old.n == ix.Len():
		cols, writeCol = old.cols, false
	case hadOld && old.n < ix.Len():
		cols = append(old.cols[:len(old.cols):len(old.cols)], chunkRec{base: old.n})
	default:
		cols = []chunkRec{{}}
	}
	col := &cols[len(cols)-1]
	var written []string
	if writeCol {
		col.file, col.count = s.nextFileLocked(".col"), ix.Len()-col.base
		written = append(written, col.file)
	}
	for _, i := range fresh {
		written = append(written, segs[i].file)
	}
	s.mu.Unlock()

	// File IO happens outside the lock; the commit re-checks the epoch,
	// which catches any invalidation that lands meanwhile.
	if writeCol {
		col.crc, col.size, err = writeColumnFile(filepath.Join(s.dir, col.file), ix.Scores()[col.base:])
	}
	for _, i := range fresh {
		if err == nil {
			segs[i].crc, segs[i].size, err = writeSegmentFile(filepath.Join(s.dir, segs[i].file), ix.SegmentView(i))
		}
	}
	if err != nil {
		s.remove(written) // names not yet written are simply absent
		return fmt.Errorf("storage: persist index %s/%s: %w", meta.Table, meta.Source, err)
	}

	rec := indexRec{
		table:       meta.Table,
		source:      meta.Source,
		fusion:      meta.Fusion,
		calibOracle: meta.CalibOracle,
		proxies:     append([]string(nil), meta.Proxies...),
		n:           ix.Len(),
		cols:        cols,
		segs:        segs,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.commitLocked(written, current, encodeIndex(rec), recIndex, rec); err != nil {
		return err
	}
	s.indexOf[key] = ix
	s.segmentsPersisted += int64(len(fresh))
	return nil
}

// DropTable durably tombstones a table, its dataset chunk files, and
// every index built over it, and advances the table's epoch so
// in-flight index flushes abandon themselves.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	s.epochs[name]++
	_, held := s.st.tables[name]
	for k := range s.st.indexes {
		held = held || k.table == name
	}
	if !held {
		return nil
	}
	if err := s.commitLocked(nil, nil, encodeDropTable(name), recDropTable, name); err != nil {
		return err
	}
	for k := range s.indexOf {
		if k.table == name {
			delete(s.indexOf, k)
		}
	}
	return nil
}

// DropIndex durably tombstones one (table, source) index and advances
// the table's epoch. The epoch is per table, so a concurrent flush of a
// sibling source on the same table is also abandoned — it simply stays
// memory-only until its next rebuild, which is safe (never wrong, at
// worst re-done).
func (s *Store) DropIndex(table, source string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	s.epochs[table]++
	key := ixKey{table, source}
	if _, ok := s.st.indexes[key]; !ok {
		return nil
	}
	err := s.commitLocked(nil, nil, encodeDropIndex(key), recDropIndex, key)
	if err == nil {
		delete(s.indexOf, key)
	}
	return err
}

// SaveMixtures checkpoints the cached sampling mixtures of ix, the
// index of (table, source), as write-once .mix files: one per
// (exponent, mix) key not already on disk, each committed under a
// mixture record bound to the live index record. It writes nothing
// unless that record was flushed from (or recovered as) ix itself — an
// index never flushed, or superseded or dropped since, would bind the
// tables to another column. Files are streamed, never buffered whole.
// It returns how many mixtures it wrote. Meant for clean shutdown: the
// engine calls it from Close, so no query or append pays for it.
func (s *Store) SaveMixtures(table, source string, ix *index.ScoreIndex) (int, error) {
	key := ixKey{table, source}
	s.mu.Lock()
	if err := s.writableLocked(); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	ir, ok := s.st.indexes[key]
	if !ok || s.indexOf[key] != ix {
		s.mu.Unlock()
		return 0, nil
	}
	type pending struct {
		rec    mixRec
		tables index.MixtureTables
	}
	var todo []pending
	for _, mt := range ix.CachedMixtureTables() {
		rec := mixRec{table: table, source: source, n: ir.n, colCRC: ir.colCRC(),
			exponent: mt.Key.Exponent, mix: mt.Key.Mix}
		if _, done := s.st.mixtures[rec.key()]; done || len(mt.Weights) != ir.n || !finiteKey(rec.exponent, rec.mix) {
			continue
		}
		rec.file = s.nextFileLocked(".mix")
		todo = append(todo, pending{rec, mt})
	}
	s.mu.Unlock()

	written := 0
	for _, p := range todo {
		rec := p.rec
		crc, size, err := writeMixtureFile(filepath.Join(s.dir, rec.file), p.tables)
		if err != nil {
			return written, fmt.Errorf("storage: persist mixture for %s/%s: %w", table, source, err)
		}
		rec.crc, rec.size = crc, size
		s.mu.Lock()
		err = s.commitLocked([]string{rec.file}, func() error {
			// The index record the mixture binds to must still be the
			// live one flushed from ix.
			if ir, ok := s.st.indexes[key]; !ok || s.indexOf[key] != ix || !rec.boundTo(ir) {
				return ErrSuperseded
			}
			return nil
		}, encodeMixture(rec), recMixture, rec)
		s.mu.Unlock()
		if err != nil {
			return written, err
		}
		written++
	}
	return written, nil
}

// newFile names a fresh data file, or reports why the store takes no
// writes.
func (s *Store) newFile(ext string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return "", err
	}
	return s.nextFileLocked(ext), nil
}

// commitLocked is the one step by which a write changes the catalog.
// Called with s.mu held, it checks that the store takes writes and that
// check (when non-nil), the caller's precondition, holds; appends and
// fsyncs the record payload encodes; folds rec into the catalog;
// deletes the files the fold reports superseded; and compacts the
// manifest when dead records dominate. On any failure the catalog is
// unchanged: it deletes written, the data files the caller wrote for
// the record, and returns the error.
func (s *Store) commitLocked(written []string, check func() error, payload []byte, rtype byte, rec any) error {
	err := s.writableLocked()
	if err == nil && check != nil {
		err = check()
	}
	if err == nil {
		err = s.man.appendRecord(payload)
	}
	if err != nil {
		s.remove(written)
		return err
	}
	s.remove(s.st.apply(rtype, rec))
	s.maybeCompactLocked()
	return nil
}

// remove deletes the named data files, skipping any name that could
// escape the directory.
func (s *Store) remove(files []string) {
	for _, f := range files {
		if checkFileName(f) == nil {
			os.Remove(filepath.Join(s.dir, f))
		}
	}
}

// writableLocked reports why the store takes no writes: it is closed,
// or an earlier manifest failure stopped it. Called with s.mu held.
func (s *Store) writableLocked() error {
	if s.closed {
		return fmt.Errorf("storage: store closed")
	}
	return s.man.Err()
}

// maybeCompactLocked compacts the manifest after an append when dead
// records dominate. Called with s.mu held.
func (s *Store) maybeCompactLocked() {
	if s.man.shouldCompact(s.st.live()) {
		if err := s.man.compact(s.st); err == nil {
			s.compactions++
		}
	}
}

// Close releases the manifest handle, and with it the directory's lock,
// and reports a manifest write that failed. Mapped files are deliberately left mapped: recovered datasets
// and indexes alias them and may still be referenced by in-flight
// queries.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.man.Close()
}
