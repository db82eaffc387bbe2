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
// state it loses is rebuilt, never served wrong.
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
		rec := s.st.tables[name]
		d, err := s.loadDataset(rec)
		if err != nil {
			s.degrade(fmt.Sprintf("table %s: %v", name, err))
			s.tombstone(encodeDropTable(name), recDropTable, name)
			continue
		}
		s.recTables = append(s.recTables, RecoveredTable{Name: name, Dataset: d, CRC: rec.crc})
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
		ix, err := s.loadIndex(rec, tbl.records, mixes)
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

// loadDataset maps (or reads) and verifies one table's dataset file.
func (s *Store) loadDataset(rec datasetRec) (*dataset.Dataset, error) {
	data, mapped, err := s.loadVerified(rec.file, rec.size, rec.crc)
	if err != nil {
		return nil, err
	}
	df, err := parseDatasetFile(data)
	if err != nil {
		return nil, err
	}
	if df.count != rec.records {
		return nil, fmt.Errorf("dataset file holds %d records, manifest says %d", df.count, rec.records)
	}
	var scores []float64
	if mapped {
		scores = aliasFloat64s(df.scores)
	} else {
		scores = decodeFloat64s(df.scores)
	}
	// Labels are always decoded to the heap (bit-unpacking is required
	// either way); scores ride the mapping zero-copy. The CRC check
	// above stands in for New's per-record range scan.
	return dataset.FromColumns(rec.name, scores, decodeLabelBits(df.labelBits, df.count))
}

// loadIndex maps (or reads) one index's column and segment files and
// reconstructs the ScoreIndex via FromExternal's verification — zero
// sorts, zero proxy calls, byte-identical or rejected. mixes are the
// index's stored sampling mixtures, handed over unread.
func (s *Store) loadIndex(rec indexRec, tableRecords int, mixes []index.StoredMixture) (*index.ScoreIndex, error) {
	if rec.n > tableRecords {
		return nil, fmt.Errorf("index covers %d rows but table has %d", rec.n, tableRecords)
	}
	colData, colMapped, err := s.loadVerified(rec.colFile, rec.colSize, rec.colCRC)
	if err != nil {
		return nil, fmt.Errorf("column %s: %w", rec.colFile, err)
	}
	cf, err := parseColumnFile(colData)
	if err != nil {
		return nil, err
	}
	if cf.count != rec.n {
		return nil, fmt.Errorf("column file holds %d scores, manifest says %d", cf.count, rec.n)
	}
	var column []float64
	if colMapped {
		column = aliasFloat64s(cf.scores)
	} else {
		column = decodeFloat64s(cf.scores)
	}
	segs := make([]index.SegmentData, len(rec.segs))
	backing := make([]any, 0, len(rec.segs)+1)
	if colMapped {
		backing = append(backing, colData)
	}
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
		if mapped {
			segs[i] = index.SegmentData{Base: sf.base, Perm: aliasInts(sf.perm), Sorted: aliasFloat64s(sf.sorted)}
			backing = append(backing, data)
		} else {
			segs[i] = index.SegmentData{Base: sf.base, Perm: decodeInts(sf.perm), Sorted: decodeFloat64s(sf.sorted)}
		}
		if sr.codeFile == "" {
			continue
		}
		// Quantized index: map the segment's .qcv sibling too. The codes
		// are structurally validated here and semantically verified
		// against the mmap'd float column inside FromExternal's O(n)
		// pass, exactly like the permutation.
		cdata, cmapped, err := s.loadVerified(sr.codeFile, sr.codeSize, sr.codeCRC)
		if err != nil {
			return nil, fmt.Errorf("codes %s: %w", sr.codeFile, err)
		}
		qf, err := parseCodeFile(cdata)
		if err != nil {
			return nil, fmt.Errorf("codes %s: %w", sr.codeFile, err)
		}
		if qf.base != sr.base || qf.count != sr.count {
			return nil, fmt.Errorf("codes %s header (%d,%d) disagrees with manifest (%d,%d)",
				sr.codeFile, qf.base, qf.count, sr.base, sr.count)
		}
		if cmapped {
			segs[i].Codes = aliasUint16s(qf.codes)
			segs[i].SortedCodes = aliasUint16s(qf.sortedCodes)
			backing = append(backing, cdata)
		} else {
			segs[i].Codes = decodeUint16s(qf.codes)
			segs[i].SortedCodes = decodeUint16s(qf.sortedCodes)
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
	if mapped {
		madviseBytes(data, s.advise)
		s.mu.Lock()
		s.mappedBytes += int64(len(data))
		s.counters.StorageMappedBytes(int64(len(data)))
		s.mu.Unlock()
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
		referenced[rec.file] = true
	}
	for _, rec := range s.st.indexes {
		referenced[rec.colFile] = true
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

// SaveDataset persists a table's dataset and commits it to the
// manifest, superseding (and deleting) any previous dataset file for
// the name. Index records for the table are left alone — an append
// grows the dataset without invalidating index lineages.
func (s *Store) SaveDataset(name string, d *dataset.Dataset) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("storage: store closed")
	}
	file := s.nextFileLocked(".ds")
	s.mu.Unlock()

	crc, size, err := writeDatasetFile(filepath.Join(s.dir, file), d)
	if err != nil {
		return fmt.Errorf("storage: persist dataset %s: %w", name, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		os.Remove(filepath.Join(s.dir, file))
		return fmt.Errorf("storage: store closed")
	}
	rec := datasetRec{name: name, file: file, records: d.Len(), crc: crc, size: size}
	before := s.man.frames
	if err := s.man.appendRecord(encodeDataset(rec)); err != nil {
		os.Remove(filepath.Join(s.dir, file))
		return err
	}
	old, had := s.st.tables[name]
	s.st.apply(recDataset, rec)
	if had && old.file != file {
		os.Remove(filepath.Join(s.dir, old.file))
	}
	s.maybeCompactLocked(before)
	return nil
}

// SaveIndex persists an index built for meta's (table, source) at the
// given epoch: the contiguous score column plus one file per segment,
// committed as a single manifest record. Segment files from a previous
// flush of the same lineage are reused by (base, count) — segments are
// immutable, so an append-grown index rewrites only its new tail.
// Returns ErrSuperseded (after deleting anything it wrote) if the
// table's epoch advanced, i.e. an invalidation raced the build.
func (s *Store) SaveIndex(meta IndexMeta, ix *index.ScoreIndex, epoch uint64) error {
	key := ixKey{meta.Table, meta.Source}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("storage: store closed")
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
	quantized := ix.Quantized()
	type pending struct {
		file     string // .seg to write, "" when only codes are missing
		codeFile string // .qcv to write, "" when unquantized or reused
		view     index.SegmentData
	}
	segs := make([]segRec, ix.Segments())
	var writes []pending
	for i := 0; i < ix.Segments(); i++ {
		sd := ix.SegmentView(i)
		if sr, ok := reuse[[2]int{sd.Base, len(sd.Perm)}]; ok {
			// The immutable .seg file is reusable; the .qcv sibling is
			// reusable only if the previous flush's quantization matches.
			// Quantize turned on since: write just the missing code file.
			// Turned off: drop the reference (the superseded-file sweep
			// below deletes the .qcv once the new record commits).
			switch {
			case quantized && sr.codeFile == "":
				sr.codeFile = s.nextFileLocked(".qcv")
				sr.codeCRC, sr.codeSize = 0, 0
				writes = append(writes, pending{codeFile: sr.codeFile, view: sd})
			case !quantized && sr.codeFile != "":
				sr.codeFile, sr.codeCRC, sr.codeSize = "", 0, 0
			}
			segs[i] = sr
			continue
		}
		file := s.nextFileLocked(".seg")
		segs[i] = segRec{file: file, base: sd.Base, count: len(sd.Perm)}
		p := pending{file: file, view: sd}
		if quantized {
			segs[i].codeFile = s.nextFileLocked(".qcv")
			p.codeFile = segs[i].codeFile
		}
		writes = append(writes, p)
	}
	colFile := old.colFile
	colCRC, colSize := old.colCRC, old.colSize
	writeCol := !hadOld || old.n != ix.Len()
	if writeCol {
		colFile = s.nextFileLocked(".col")
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
		crc, size, err := writeColumnFile(filepath.Join(s.dir, colFile), ix.Scores())
		if err != nil {
			abort()
			return fmt.Errorf("storage: persist column for %s/%s: %w", meta.Table, meta.Source, err)
		}
		colCRC, colSize = crc, size
		written = append(written, colFile)
	}
	for _, p := range writes {
		if p.file != "" {
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
		if p.codeFile != "" {
			crc, size, err := writeCodeFile(filepath.Join(s.dir, p.codeFile), p.view)
			if err != nil {
				abort()
				return fmt.Errorf("storage: persist segment codes for %s/%s: %w", meta.Table, meta.Source, err)
			}
			written = append(written, p.codeFile)
			for i := range segs {
				if segs[i].codeFile == p.codeFile {
					segs[i].codeCRC, segs[i].codeSize = crc, size
				}
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.epochs[meta.Table] != epoch {
		abort()
		if s.closed {
			return fmt.Errorf("storage: store closed")
		}
		return ErrSuperseded
	}
	rec := indexRec{
		table:       meta.Table,
		source:      meta.Source,
		fusion:      meta.Fusion,
		calibOracle: meta.CalibOracle,
		proxies:     append([]string(nil), meta.Proxies...),
		n:           ix.Len(),
		colFile:     colFile,
		colCRC:      colCRC,
		colSize:     colSize,
		segs:        segs,
		quantized:   quantized,
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
		keep := make(map[string]bool, 2*len(segs)+1)
		keep[colFile] = true
		for _, sr := range segs {
			keep[sr.file] = true
			if sr.codeFile != "" {
				keep[sr.codeFile] = true
			}
		}
		if !keep[cur.colFile] {
			os.Remove(filepath.Join(s.dir, cur.colFile))
		}
		for _, sr := range cur.segs {
			if !keep[sr.file] {
				os.Remove(filepath.Join(s.dir, sr.file))
			}
			if sr.codeFile != "" && !keep[sr.codeFile] {
				os.Remove(filepath.Join(s.dir, sr.codeFile))
			}
		}
	}
	// Count .seg files only: a code-only write (quantize turned on over
	// reused segments) persists no segment.
	var segWrites int64
	for _, p := range writes {
		if p.file != "" {
			segWrites++
		}
	}
	s.segmentsPersisted += segWrites
	s.counters.StorageSegmentsPersisted(segWrites)
	s.maybeCompactLocked(before)
	return nil
}

// DropTable durably tombstones a table, its dataset file, and every
// index built over it, and advances the table's epoch so in-flight
// index flushes abandon themselves.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: store closed")
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
	if rec, ok := s.st.tables[name]; ok {
		os.Remove(filepath.Join(s.dir, rec.file))
	}
	for k, rec := range s.st.indexes {
		if k.table != name {
			continue
		}
		delete(s.indexOf, k)
		os.Remove(filepath.Join(s.dir, rec.colFile))
		for _, sr := range rec.segs {
			os.Remove(filepath.Join(s.dir, sr.file))
			if sr.codeFile != "" {
				os.Remove(filepath.Join(s.dir, sr.codeFile))
			}
		}
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
	if s.closed {
		return fmt.Errorf("storage: store closed")
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
	os.Remove(filepath.Join(s.dir, rec.colFile))
	for _, sr := range rec.segs {
		os.Remove(filepath.Join(s.dir, sr.file))
		if sr.codeFile != "" {
			os.Remove(filepath.Join(s.dir, sr.codeFile))
		}
	}
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
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("storage: store closed")
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
		rec := mixRec{table: table, source: source, n: ir.n, colCRC: ir.colCRC,
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
	if s.closed {
		return fmt.Errorf("storage: store closed")
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
