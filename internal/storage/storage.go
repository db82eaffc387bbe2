// Package storage is the durable tier under the query engine: a
// write-once, CRC-verified on-disk format for datasets, index score
// columns, per-segment (score, id) permutations and cached IS sampling
// mixtures, plus an append-only MANIFEST log that records which files
// are live for each (table, score source). The contract is zero-rescan
// recovery with byte-identical results: Open mmaps the persisted files
// back into index segment views, re-proving (not re-computing) each
// permutation, so a restarted process answers queries bit-for-bit the
// same as before the crash while invoking zero proxy UDFs and
// performing zero permutation sorts.
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
//     fsynced).
//
// A crash between (1) and (2) leaves orphan files that boot-time
// cleanup removes; a crash during (1) leaves *.tmp litter, also
// removed; a crash mid-append leaves a torn manifest tail, truncated
// at the last whole record. Any file whose size or CRC32 disagrees
// with its manifest record — and any permutation that fails the O(n)
// ascent proof — causes that table or index to be dropped (durably
// tombstoned) rather than served: the engine falls back to a rebuild.
// One bad chunk drops its whole table or index, never leaves a gap. A
// failed manifest write, or a compaction whose rename cannot be made
// durable, stops every later store write (fail-stop).
package storage

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/metrics"
	"supg/internal/sampling"
)

// Options configures a Store.
type Options struct {
	// Dir is the persistence directory (created if absent).
	Dir string
	// NoMmap forces heap loads with portable decoding even on
	// platforms that support zero-copy mapping.
	NoMmap bool
	// Madvise optionally hints residency for mapped files: "",
	// "normal", "random", "sequential", or "willneed".
	Madvise string
	// Index supplies the segment size and parallelism recovered
	// indexes use for verification and future appends.
	Index index.Options
}

// Residency hints (resolved from Options.Madvise).
const (
	adviseNone = iota
	adviseNormal
	adviseRandom
	adviseSequential
	adviseWillneed
)

func parseMadvise(s string) (int, error) {
	switch s {
	case "", "none":
		return adviseNone, nil
	case "normal":
		return adviseNormal, nil
	case "random":
		return adviseRandom, nil
	case "sequential":
		return adviseSequential, nil
	case "willneed":
		return adviseWillneed, nil
	default:
		return 0, fmt.Errorf("storage: unknown madvise hint %q (want normal, random, sequential, or willneed)", s)
	}
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

// RecoveredIndex is a segmented index restored from disk at Open —
// verified, never re-sorted.
type RecoveredIndex struct {
	IndexMeta
	Index *index.ScoreIndex
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	TablesLive   int
	IndexesLive  int
	SegmentsLive int

	MixturesLive int

	TablesRecovered   int
	IndexesRecovered  int
	SegmentsRecovered int
	// MixturesRecovered counts the stored sampling mixtures attached
	// to recovered indexes (adopted lazily, on first use).
	MixturesRecovered int

	MappedBytes     int64
	RecoveryElapsed time.Duration
	ManifestRecords int64
	Compactions     int64

	// Degraded lists human-readable notes about state that was present
	// in the manifest but could not be served (corrupt or torn files)
	// and was dropped in favor of a rebuild.
	Degraded []string
}

// Store owns a persistence directory: the MANIFEST log plus write-once
// dataset/column/segment files.
type Store struct {
	dir    string
	opts   Options
	advise int

	mu     sync.Mutex
	man    *manifest
	st     manifestState
	epochs map[string]uint64
	seq    uint64
	closed bool
	// indexOf maps each live index record to the in-memory index it was
	// flushed from or recovered as, so SaveMixtures can prove that a
	// mixture's tables belong to the column the record describes.
	indexOf map[ixKey]*index.ScoreIndex

	counters *metrics.Counters

	segmentsPersisted int64
	mappedBytes       int64
	compactions       int64

	// Recovery products, immutable after Open.
	recTables   []RecoveredTable
	recIndexes  []RecoveredIndex
	recSegments int
	recMixtures int
	degraded    []string
	recElapsed  time.Duration
}

// Open replays dir's manifest, loads and verifies every live table and
// index (mmap'd when the platform allows), removes crash litter and
// orphan files, and returns the store ready for appends. Corrupt state
// is dropped — durably tombstoned and reported via Stats().Degraded —
// never served.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("storage: no directory configured")
	}
	advise, err := parseMadvise(opts.Madvise)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", opts.Dir, err)
	}
	start := time.Now()
	removeCrashLitter(opts.Dir)
	man, st, err := openManifest(opts.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:     opts.Dir,
		opts:    opts,
		advise:  advise,
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

// removeCrashLitter deletes temp files a crash may have left behind:
// half-written *.tmp data files and an uncommitted MANIFEST.compact.
func removeCrashLitter(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") || name == manifestName+".compact" {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// loadCatalog materializes every live manifest entry, dropping (with a
// durable tombstone) anything that fails verification.
func (s *Store) loadCatalog() {
	names := make([]string, 0, len(s.st.tables))
	for name := range s.st.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d, crc, err := s.loadDataset(s.st.tables[name])
		if err != nil {
			s.degrade(fmt.Sprintf("table %s: %v", name, err))
			s.tombstone(encodeDropTable(name), recDropTable, name)
			continue
		}
		s.recTables = append(s.recTables, RecoveredTable{Name: name, Dataset: d, CRC: crc})
	}
	keys := make([]ixKey, 0, len(s.st.indexes))
	for k := range s.st.indexes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].table != keys[j].table {
			return keys[i].table < keys[j].table
		}
		return keys[i].source < keys[j].source
	})
	for _, k := range keys {
		rec := s.st.indexes[k]
		tbl, ok := s.st.tables[k.table]
		if !ok {
			// Table was dropped (possibly just above); the index goes
			// with it — recDropTable already covers it in the catalog.
			continue
		}
		mixes := s.storedMixtures(k)
		ix, err := s.loadIndex(rec, tbl.records(), mixes)
		if err != nil {
			s.degrade(fmt.Sprintf("index %s/%s: %v", k.table, k.source, err))
			s.tombstone(encodeDropIndex(k), recDropIndex, k)
			continue
		}
		s.indexOf[k] = ix
		s.recMixtures += len(mixes)
		s.recIndexes = append(s.recIndexes, RecoveredIndex{
			IndexMeta: IndexMeta{
				Table:       rec.table,
				Source:      rec.source,
				Fusion:      rec.fusion,
				CalibOracle: rec.calibOracle,
				Proxies:     rec.proxies,
			},
			Index: ix,
		})
		s.recSegments += len(rec.segs)
	}
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
	s.st.apply(rtype, rec)
}

// loadDataset maps (or reads) and verifies a table's dataset chunks,
// and returns the dataset with its identity, the CRC of its whole
// binary form. A one-chunk dataset's scores ride the mapping zero-copy
// and its identity is the file's CRC; the chunks of a grown table are
// copied into one heap column and hashed once.
func (s *Store) loadDataset(rec datasetRec) (*dataset.Dataset, uint32, error) {
	if len(rec.chunks) == 1 {
		c := rec.chunks[0]
		data, mapped, err := s.loadVerified(c.file, c.size, c.crc)
		if err != nil {
			return nil, 0, err
		}
		df, err := parseDatasetChunk(data, c)
		if err != nil {
			return nil, 0, err
		}
		var scores []float64
		if mapped {
			scores = aliasFloat64s(df.scores)
		} else {
			scores = decodeFloat64s(df.scores)
		}
		// Labels are always decoded to the heap (bit-unpacking is
		// required either way). The CRC check above stands in for New's
		// per-record range scan.
		labels := make([]bool, df.count)
		decodeLabelBits(labels, df.labelBits)
		d, err := dataset.FromColumns(rec.name, scores, labels)
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
// unread.
func (s *Store) loadIndex(rec indexRec, tableRecords int, mixes []index.StoredMixture) (*index.ScoreIndex, error) {
	if rec.n > tableRecords {
		return nil, fmt.Errorf("index covers %d rows but table has %d", rec.n, tableRecords)
	}
	var column []float64
	backing := make([]any, 0, len(rec.segs)+1)
	if len(rec.cols) == 1 {
		c := rec.cols[0]
		colData, colMapped, err := s.loadVerified(c.file, c.size, c.crc)
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", c.file, err)
		}
		cf, err := parseColumnChunk(colData, c)
		if err != nil {
			return nil, err
		}
		if colMapped {
			column = aliasFloat64s(cf.scores)
			backing = append(backing, colData)
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
			backing = append(backing, data)
		} else {
			segs[i] = index.SegmentData{Base: sf.base, Perm: decodeInts(sf.perm), Sorted: decodeFloat64s(sf.sorted)}
		}
	}
	return index.FromExternal(index.External{Column: column, Segments: segs, Backing: backing, Mixtures: mixes}, s.opts.Index)
}

// storedMixtures returns lazy loaders for the live mixtures of index k.
func (s *Store) storedMixtures(k ixKey) []index.StoredMixture {
	recs := s.st.mixturesOf(func(ik ixKey) bool { return ik == k })
	out := make([]index.StoredMixture, len(recs))
	for i, rec := range recs {
		rec := rec
		out[i] = index.StoredMixture{
			Key: index.MixtureKey{Exponent: rec.exponent, Mix: rec.mix},
			Load: func() ([]float64, *sampling.Alias, error) {
				w, a, err := s.loadMixture(rec)
				if err != nil {
					s.rejectMixture(rec, err)
				}
				return w, a, err
			},
		}
	}
	return out
}

// loadMixture maps (or reads) one mixture file and checks it against
// its record: exact size and CRC, header key and count, and in-bounds
// alias tables (what keeps every draw inside the column). The weight
// values are trusted on the CRC, like every other persisted float. It
// runs when a query first asks for the mixture, never at Open.
func (s *Store) loadMixture(rec mixRec) ([]float64, *sampling.Alias, error) {
	data, mapped, err := s.loadVerified(rec.file, rec.size, rec.crc)
	if err != nil {
		return nil, nil, err
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
	var weights, prob []float64
	var alias []int32
	if mapped {
		weights, prob, alias = aliasFloat64s(mf.weights), aliasFloat64s(mf.prob), aliasInt32s(mf.alias)
	} else {
		weights, prob, alias = decodeFloat64s(mf.weights), decodeFloat64s(mf.prob), decodeInt32s(mf.alias)
	}
	a, err := sampling.AliasFromTables(prob, alias)
	if err != nil {
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
	if cur, ok := s.st.mixtures[k]; s.closed || !ok || cur.file != rec.file {
		return // already superseded; the next boot re-checks anything left
	}
	before := s.man.frames
	s.tombstone(encodeDropMixture(k), recDropMixture, k)
	os.Remove(filepath.Join(s.dir, rec.file))
	s.maybeCompactLocked(before)
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
	madviseBytes(data, s.advise)
	s.mu.Lock()
	s.mappedBytes += int64(len(data))
	s.counters.StorageMappedBytes(int64(len(data)))
	s.mu.Unlock()
	return data, mapped, nil
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
	referenced := make(map[string]bool)
	for _, rec := range s.st.tables {
		for _, c := range rec.chunks {
			referenced[c.file] = true
		}
	}
	for _, rec := range s.st.indexes {
		for _, c := range rec.cols {
			referenced[c.file] = true
		}
		for _, sr := range rec.segs {
			referenced[sr.file] = true
			if sr.codeFile != "" {
				referenced[sr.codeFile] = true
			}
		}
	}
	for _, rec := range s.st.mixtures {
		referenced[rec.file] = true
	}
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

// RecoveredIndexes returns the verified indexes restored at Open.
func (s *Store) RecoveredIndexes() []RecoveredIndex { return s.recIndexes }

// Epoch returns the table's invalidation epoch. Capture it before
// building an index; pass it to SaveIndex so a drop that raced the
// build cannot be overwritten by a stale flush.
func (s *Store) Epoch(table string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochs[table]
}

// WithCounters attaches service metrics, retroactively adding the
// recovery outcome (the store is opened before counters exist).
func (s *Store) WithCounters(c *metrics.Counters) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters = c
	c.StorageRecovered(int64(len(s.recTables)), int64(len(s.recIndexes)), int64(s.recSegments))
	c.StorageMappedBytes(s.mappedBytes)
	c.StorageRecoveryMillis(s.recElapsed.Milliseconds())
	c.StorageSegmentsPersisted(s.segmentsPersisted)
	c.StorageManifestRecords(s.man.frames)
	c.StorageManifestCompactions(s.compactions)
}

// Stats returns a point-in-time summary.
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
		MappedBytes:       s.mappedBytes,
		RecoveryElapsed:   s.recElapsed,
		ManifestRecords:   s.man.frames,
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
	s.mu.Lock()
	if err := s.writableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	file := s.nextFileLocked(".ds")
	s.mu.Unlock()

	crc, size, err := writeDatasetFile(filepath.Join(s.dir, file), d)
	if err != nil {
		return fmt.Errorf("storage: persist dataset %s: %w", name, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		os.Remove(filepath.Join(s.dir, file))
		return err
	}
	c := chunkRec{file: file, count: d.Len(), crc: crc, size: size}
	before := s.man.frames
	if err := s.man.appendRecord(encodeDataset(name, c)); err != nil {
		os.Remove(filepath.Join(s.dir, file))
		return err
	}
	old := s.st.tables[name]
	s.st.apply(recDataset, datasetRec{name: name, chunks: []chunkRec{c}})
	s.removeChunksLocked(old.chunks, nil)
	s.maybeCompactLocked(before)
	return nil
}

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
	s.mu.Lock()
	if err := s.writableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	file := s.nextFileLocked(".ds")
	s.mu.Unlock()

	path := filepath.Join(s.dir, file)
	crc, size, err := writeDatasetFile(path, d.Slice(base, d.Len()))
	if err != nil {
		return fmt.Errorf("storage: persist dataset chunk %s: %w", name, err)
	}
	committed, err := s.commitDatasetChunk(name, chunkRec{file: file, base: base, count: d.Len() - base, crc: crc, size: size})
	if err != nil || !committed {
		os.Remove(path)
	}
	if err == nil && !committed {
		return s.SaveDataset(name, d)
	}
	return err
}

// commitDatasetChunk appends a written chunk's record if the table
// still holds exactly c.base records; it reports false otherwise.
func (s *Store) commitDatasetChunk(name string, c chunkRec) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return false, err
	}
	if s.st.tables[name].records() != c.base {
		return false, nil
	}
	before := s.man.frames
	if err := s.man.appendRecord(encodeDatasetChunk(name, c)); err != nil {
		return false, err
	}
	s.st.apply(recDatasetChunk, tableChunk{name: name, chunk: c})
	s.maybeCompactLocked(before)
	return true, nil
}

// removeChunksLocked deletes the files of chunks that keep does not
// name. Called with s.mu held, after the record that superseded them is
// durable.
func (s *Store) removeChunksLocked(chunks []chunkRec, keep map[string]bool) {
	for _, c := range chunks {
		if !keep[c.file] {
			os.Remove(filepath.Join(s.dir, c.file))
		}
	}
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

	s.mu.Lock()
	if err := s.writableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if s.epochs[meta.Table] != epoch {
		s.mu.Unlock()
		return ErrSuperseded
	}
	old, hadOld := s.st.indexes[key]
	reuse := make(map[[2]int]segRec, len(old.segs))
	if hadOld {
		for _, sr := range old.segs {
			reuse[[2]int{sr.base, sr.count}] = sr
		}
	}
	type pending struct {
		file string // .seg to write
		view index.SegmentData
	}
	segs := make([]segRec, ix.Segments())
	var writes []pending
	for i := 0; i < ix.Segments(); i++ {
		sd := ix.SegmentView(i)
		if sr, ok := reuse[[2]int{sd.Base, len(sd.Perm)}]; ok {
			// The immutable .seg file is reusable. A legacy .qcv sibling
			// is dropped from the record; the superseded-file sweep below
			// deletes it once the new record commits.
			sr.codeFile, sr.codeCRC, sr.codeSize = "", 0, 0
			segs[i] = sr
			continue
		}
		file := s.nextFileLocked(".seg")
		segs[i] = segRec{file: file, base: sd.Base, count: len(sd.Perm)}
		writes = append(writes, pending{file: file, view: sd})
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
	if writeCol {
		c := &cols[len(cols)-1]
		c.file, c.count = s.nextFileLocked(".col"), ix.Len()-c.base
	}
	s.mu.Unlock()

	// File IO happens outside the lock; the epoch re-check below
	// catches any invalidation that lands meanwhile.
	written := make([]string, 0, len(writes)+1)
	abort := func() {
		for _, f := range written {
			os.Remove(filepath.Join(s.dir, f))
		}
	}
	if writeCol {
		c := &cols[len(cols)-1]
		crc, size, err := writeColumnFile(filepath.Join(s.dir, c.file), ix.Scores()[c.base:])
		if err != nil {
			abort()
			return fmt.Errorf("storage: persist column for %s/%s: %w", meta.Table, meta.Source, err)
		}
		c.crc, c.size = crc, size
		written = append(written, c.file)
	}
	for _, p := range writes {
		crc, size, err := writeSegmentFile(filepath.Join(s.dir, p.file), p.view)
		if err != nil {
			abort()
			return fmt.Errorf("storage: persist segment for %s/%s: %w", meta.Table, meta.Source, err)
		}
		written = append(written, p.file)
		for i := range segs {
			if segs[i].file == p.file {
				segs[i].crc, segs[i].size = crc, size
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		abort()
		return err
	}
	if s.epochs[meta.Table] != epoch {
		abort()
		return ErrSuperseded
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
	before := s.man.frames
	if err := s.man.appendRecord(encodeIndex(rec)); err != nil {
		abort()
		return err
	}
	// Catalog state may have shifted while we wrote (another flush of
	// the same key): re-snapshot to delete exactly the files the new
	// record supersedes — mixtures included, which the record drops
	// when it no longer describes their column.
	cur, hadCur := s.st.indexes[key]
	mixes := s.st.mixturesOf(func(k ixKey) bool { return k == key })
	s.st.apply(recIndex, rec)
	s.indexOf[key] = ix
	s.removeDeadMixturesLocked(mixes)
	if hadCur {
		keep := make(map[string]bool, 2*len(segs)+len(cols))
		for _, c := range cols {
			keep[c.file] = true
		}
		for _, sr := range segs {
			keep[sr.file] = true
		}
		s.removeIndexFilesLocked(cur, keep)
	}
	segWrites := int64(len(writes))
	s.segmentsPersisted += segWrites
	s.counters.StorageSegmentsPersisted(segWrites)
	s.maybeCompactLocked(before)
	return nil
}

// removeIndexFilesLocked deletes the column chunk, segment and legacy
// .qcv files of rec that keep does not name. Called with s.mu held,
// after the record that superseded them is durable.
func (s *Store) removeIndexFilesLocked(rec indexRec, keep map[string]bool) {
	s.removeChunksLocked(rec.cols, keep)
	for _, sr := range rec.segs {
		if !keep[sr.file] {
			os.Remove(filepath.Join(s.dir, sr.file))
		}
		if sr.codeFile != "" && !keep[sr.codeFile] {
			os.Remove(filepath.Join(s.dir, sr.codeFile))
		}
	}
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
	_, hadTable := s.st.tables[name]
	hasIx := false
	for k := range s.st.indexes {
		if k.table == name {
			hasIx = true
			break
		}
	}
	if !hadTable && !hasIx {
		return nil
	}
	before := s.man.frames
	if err := s.man.appendRecord(encodeDropTable(name)); err != nil {
		return err
	}
	s.removeChunksLocked(s.st.tables[name].chunks, nil)
	for k, rec := range s.st.indexes {
		if k.table != name {
			continue
		}
		delete(s.indexOf, k)
		s.removeIndexFilesLocked(rec, nil)
	}
	mixes := s.st.mixturesOf(func(k ixKey) bool { return k.table == name })
	s.st.apply(recDropTable, name)
	s.removeDeadMixturesLocked(mixes)
	s.maybeCompactLocked(before)
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
	rec, ok := s.st.indexes[key]
	if !ok {
		return nil
	}
	before := s.man.frames
	if err := s.man.appendRecord(encodeDropIndex(key)); err != nil {
		return err
	}
	s.removeIndexFilesLocked(rec, nil)
	delete(s.indexOf, key)
	mixes := s.st.mixturesOf(func(k ixKey) bool { return k == key })
	s.st.apply(recDropIndex, key)
	s.removeDeadMixturesLocked(mixes)
	s.maybeCompactLocked(before)
	return nil
}

// removeDeadMixturesLocked deletes the files of those mixtures in
// before that the catalog no longer holds. Called with s.mu held, after
// the record that dropped them is durable.
func (s *Store) removeDeadMixturesLocked(before []mixRec) {
	for _, rec := range before {
		if cur, ok := s.st.mixtures[rec.key()]; !ok || cur.file != rec.file {
			os.Remove(filepath.Join(s.dir, rec.file))
		}
	}
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
		path := filepath.Join(s.dir, p.rec.file)
		crc, size, err := writeMixtureFile(path, p.tables)
		if err != nil {
			return written, fmt.Errorf("storage: persist mixture for %s/%s: %w", table, source, err)
		}
		p.rec.crc, p.rec.size = crc, size
		if err := s.commitMixture(p.rec, ix); err != nil {
			os.Remove(path)
			return written, err
		}
		written++
	}
	return written, nil
}

// commitMixture appends a written mixture's record if the index record
// it was bound to is still the live one for ix.
func (s *Store) commitMixture(rec mixRec, ix *index.ScoreIndex) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	key := ixKey{rec.table, rec.source}
	if ir, ok := s.st.indexes[key]; !ok || s.indexOf[key] != ix || !rec.boundTo(ir) {
		return ErrSuperseded
	}
	before := s.man.frames
	if err := s.man.appendRecord(encodeMixture(rec)); err != nil {
		return err
	}
	old, had := s.st.mixtures[rec.key()]
	s.st.apply(recMixture, rec)
	if had && old.file != rec.file {
		os.Remove(filepath.Join(s.dir, old.file))
	}
	s.maybeCompactLocked(before)
	return nil
}

// writableLocked reports why the store takes no writes: it is closed,
// or an earlier manifest failure stopped it. Called with s.mu held.
func (s *Store) writableLocked() error {
	if s.closed {
		return fmt.Errorf("storage: store closed")
	}
	return s.man.err
}

// maybeCompactLocked folds manifest bookkeeping after an append and
// compacts when dead records dominate. Called with s.mu held; before is
// the frame count prior to the append(s) being accounted.
func (s *Store) maybeCompactLocked(before int64) {
	if s.man.shouldCompact(s.st.live()) {
		if err := s.man.compact(s.st); err == nil {
			s.compactions++
			s.counters.StorageManifestCompactions(1)
		}
	}
	if delta := s.man.frames - before; delta != 0 {
		s.counters.StorageManifestRecords(delta)
	}
}

// Close releases the manifest handle. Mapped files are deliberately
// left mapped: recovered datasets and indexes alias them and may still
// be referenced by in-flight queries.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.man.Close()
}
