package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"slices"
	"sort"

	"supg/internal/framelog"
)

// The MANIFEST is an append-only log of catalog records, a framelog
// log like the label store's WAL: each record is
//
//	[4B LE payload length][4B LE CRC32(Castagnoli) of payload][payload]
//
// with payload[0] a record-type byte. A torn or corrupt tail — short
// frame, bad CRC, or a well-framed payload that fails to decode — marks
// the end of the usable log: everything before it is applied, the tail
// is truncated on open. Replay folds records last-wins into the live
// catalog:
//
//	recDataset   — a table's dataset written whole, as its only chunk
//	               file (name, file, records, crc, size)
//	recIndex     — a segmented index for (table, score source): its
//	               one-chunk column file, segment files, and provenance
//	               (proxies, fusion kind, calibration oracle)
//	recDropTable — tombstone: the table and all its indexes are gone
//	recDropIndex — tombstone for one (table, score source) index
//	recIndexQ    — legacy, read but never written: recIndex for an index
//	               of the since-removed 16-bit quantized layout, whose
//	               segment entries also name a .qcv code file with CRC
//	               and size. Replay adopts it as a float index from its
//	               .seg and .col files and never loads the .qcv files;
//	               compaction re-encodes a live one unchanged, and the
//	               flush that supersedes it deletes its .qcv files.
//	recMixture   — one cached IS sampling mixture of an index: its .mix
//	               file (CRC, size) and (exponent, mix) key, bound to the
//	               index record by (table, source, record count, column
//	               CRC). A mixture whose binding does not match the live
//	               index record is dead: replay ignores it, and a newer
//	               index record for the same (table, source) — an
//	               append-grown flush — drops the mixtures it no longer
//	               matches.
//	recDropMixture — tombstone for one mixture that failed verification.
//	recDatasetChunk — one appended chunk of a table's dataset: a .ds file
//	               holding records [base, base+records) (name, file,
//	               base, records, crc, size). It applies only when base
//	               is the table's current length; any other base (or an
//	               unknown table) is a corrupt record and ends replay,
//	               so a table's chunks are always contiguous from 0.
//	recIndexChunked — recIndex for an index whose score column is stored
//	               as several chunk files (file, base, count, crc, size
//	               each, contiguous from 0 and covering the record
//	               count), written by flushes that grew an index. A
//	               mixture binds to the column through a CRC over every
//	               chunk's (base, count, crc).
//
// Downgrades: a binary older than a record type stops replay at the
// first record of that type (the unknown type reads as a corrupt tail)
// and truncates the log there, exactly as a pre-quantization binary
// does at recIndexQ. A binary that predates recMixture therefore loses
// the catalog from the first mixture record on, and one that predates
// chunks loses it from the first recDatasetChunk or recIndexChunked
// record on — a rebuild, never a wrong answer.
//
// Data files referenced by a record are fully written, fsynced, and
// renamed into place BEFORE the record is appended, so a record in the
// manifest implies its files are durable; a crash between file commit
// and record append leaves an orphan file that boot-time cleanup
// removes. When dead records outnumber live ones the log is compacted
// by rewriting live records to MANIFEST.compact and renaming over
// (framelog.Log.Rewrite); the compacted file's open handle becomes the
// live log.

const (
	recDataset      byte = 1
	recIndex        byte = 2
	recDropTable    byte = 3
	recDropIndex    byte = 4
	recIndexQ       byte = 5
	recMixture      byte = 6
	recDropMixture  byte = 7
	recDatasetChunk byte = 8
	recIndexChunked byte = 9

	manifestName = "MANIFEST"

	// maxManifestList bounds decoded list lengths (segments, proxies).
	maxManifestList = 1 << 20

	// compactMinFrames: don't bother compacting tiny logs.
	compactMinFrames = 64
)

// chunkRec describes one immutable chunk file of a persisted column:
// records [base, base+count) of a table's dataset (.ds) or of an
// index's score column (.col).
type chunkRec struct {
	file  string
	base  int
	count int
	crc   uint32
	size  int64
}

// chunksEnd returns the record count a contiguous chunk list covers.
func chunksEnd(chunks []chunkRec) int {
	if len(chunks) == 0 {
		return 0
	}
	last := chunks[len(chunks)-1]
	return last.base + last.count
}

// datasetRec describes a table's persisted dataset: the chunk files
// holding its records, contiguous from id 0. A recDataset record sets
// the table to one chunk written whole; each recDatasetChunk record
// appends one.
type datasetRec struct {
	name   string
	chunks []chunkRec
}

func (r datasetRec) records() int { return chunksEnd(r.chunks) }

// tableChunk is a decoded recDatasetChunk record.
type tableChunk struct {
	name  string
	chunk chunkRec
}

// segRec describes one persisted segment file of an index, plus — on
// legacy recIndexQ records only — its .qcv code-file sibling (codeFile
// == "" otherwise), kept so the orphan sweep spares it and the flush
// that supersedes the record deletes it.
type segRec struct {
	file  string
	base  int
	count int
	crc   uint32
	size  int64

	codeFile string
	codeCRC  uint32
	codeSize int64
}

// indexRec describes a persisted segmented index and its provenance.
type indexRec struct {
	table       string
	source      string // ScoreSource cache key
	fusion      string // query.FusionKind string form
	calibOracle string // oracle name for calibrated fusion, else ""
	proxies     []string
	n           int        // rows covered (== column length)
	cols        []chunkRec // score column chunks, contiguous from 0, covering n
	segs        []segRec
	quantized   bool // legacy recIndexQ: segments name .qcv files; set only by replay
}

// colCRC is the column's identity, the value mixture records bind to:
// the CRC of its file when the column is one chunk (as recIndex records
// it), else a CRC over every chunk's (base, count, crc).
func (r indexRec) colCRC() uint32 {
	if len(r.cols) == 1 {
		return r.cols[0].crc
	}
	var b []byte
	for _, c := range r.cols {
		b = binary.AppendUvarint(b, uint64(c.base))
		b = binary.AppendUvarint(b, uint64(c.count))
		b = binary.AppendUvarint(b, uint64(c.crc))
	}
	return crc32.Checksum(b, castagnoli)
}

// appendFiles appends the files r names to dst: its column chunks, its
// segments and their legacy .qcv siblings.
func (r indexRec) appendFiles(dst []string) []string {
	dst = appendChunkFiles(slices.Grow(dst, len(r.cols)+len(r.segs)), r.cols)
	for _, sr := range r.segs {
		dst = append(dst, sr.file)
		if sr.codeFile != "" {
			dst = append(dst, sr.codeFile)
		}
	}
	return dst
}

// ixKey identifies an index in the catalog.
type ixKey struct {
	table  string
	source string
}

// mixRec describes one persisted sampling mixture and the index record
// it is bound to: the mixture is live only while the index record for
// (table, source) covers n rows with column CRC colCRC.
type mixRec struct {
	table    string
	source   string
	n        int
	colCRC   uint32
	exponent float64
	mix      float64
	file     string
	crc      uint32
	size     int64
}

// mixKey identifies a mixture in the catalog; the (exponent, mix) key
// is held as float bits so every stored key is a usable map key.
type mixKey struct {
	ixKey
	exponent uint64
	mix      uint64
}

func (r mixRec) key() mixKey {
	return mixKey{ixKey{r.table, r.source}, math.Float64bits(r.exponent), math.Float64bits(r.mix)}
}

// boundTo reports whether the mixture was written for the index record.
func (r mixRec) boundTo(ir indexRec) bool {
	return r.n == ir.n && r.colCRC == ir.colCRC()
}

// manifestState is the fold of a manifest replay: the live catalog.
type manifestState struct {
	tables   map[string]datasetRec
	indexes  map[ixKey]indexRec
	mixtures map[mixKey]mixRec // each bound to its live index record
}

func newManifestState() manifestState {
	return manifestState{
		tables:   make(map[string]datasetRec),
		indexes:  make(map[ixKey]indexRec),
		mixtures: make(map[mixKey]mixRec),
	}
}

// live counts the records a compacted log holds: one per dataset chunk,
// index and mixture.
func (st *manifestState) live() int64 {
	n := len(st.indexes) + len(st.mixtures)
	for _, t := range st.tables {
		n += len(t.chunks)
	}
	return int64(n)
}

// tableNames returns the catalog's table names, sorted.
func (st *manifestState) tableNames() []string {
	names := make([]string, 0, len(st.tables))
	for name := range st.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// indexKeys returns the catalog's index keys, sorted by table, then
// source.
func (st *manifestState) indexKeys() []ixKey {
	keys := make([]ixKey, 0, len(st.indexes))
	for k := range st.indexes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].table != keys[j].table {
			return keys[i].table < keys[j].table
		}
		return keys[i].source < keys[j].source
	})
	return keys
}

// files returns the set of data files the catalog names: dataset and
// column chunks, segments with their legacy .qcv siblings, and
// mixtures. Open's orphan sweep deletes every data file outside it.
func (st *manifestState) files() map[string]bool {
	var names []string
	for _, t := range st.tables {
		names = appendChunkFiles(names, t.chunks)
	}
	for _, ir := range st.indexes {
		names = ir.appendFiles(names)
	}
	for _, mr := range st.mixtures {
		names = append(names, mr.file)
	}
	set := make(map[string]bool, len(names))
	for _, f := range names {
		set[f] = true
	}
	return set
}

// apply folds one record into the catalog and returns the files it
// supersedes: those of the dataset chunks, index record and mixtures
// the record replaces, drops or unbinds, legacy .qcv siblings included,
// less any file the record itself names (a flush keeps the segments
// and column chunks it reuses). While no file name appears twice in
// the catalog, that is exactly the set the catalog named before the
// record and no longer names after it. The work is proportional to the
// records replaced, never to the whole catalog.
func (st *manifestState) apply(rtype byte, rec any) []string {
	return st.fold(rtype, rec, true)
}

// fold folds one record into the catalog. With superseded set it
// returns the files the record supersedes (see apply); without, it
// builds no file list and returns nil, which is what replay and
// recovery's tombstones need: the orphan sweep after recovery deletes
// whatever file the catalog no longer names.
func (st *manifestState) fold(rtype byte, rec any, superseded bool) []string {
	var dead []string
	switch rtype {
	case recDataset:
		r := rec.(datasetRec)
		if superseded {
			dead = without(appendChunkFiles(nil, st.tables[r.name].chunks), appendChunkFiles(nil, r.chunks))
		}
		st.tables[r.name] = r
	case recDatasetChunk:
		tc := rec.(tableChunk)
		t := st.tables[tc.name]
		t.name = tc.name
		// A fresh slice: the previous state's list may be shared with a
		// snapshot the caller still holds.
		t.chunks = append(t.chunks[:len(t.chunks):len(t.chunks)], tc.chunk)
		st.tables[tc.name] = t
	case recIndex, recIndexQ, recIndexChunked:
		ir := rec.(indexRec)
		k := ixKey{ir.table, ir.source}
		if superseded {
			dead = st.indexes[k].appendFiles(nil)
		}
		st.indexes[k] = ir
		dead = st.dropMixtures(dead, superseded, func(mk mixKey, mr mixRec) bool { return mk.ixKey == k && !mr.boundTo(ir) })
		if superseded {
			dead = without(dead, ir.appendFiles(nil))
		}
	case recDropTable:
		name := rec.(string)
		if superseded {
			dead = appendChunkFiles(nil, st.tables[name].chunks)
		}
		delete(st.tables, name)
		for k, ir := range st.indexes {
			if k.table == name {
				if superseded {
					dead = ir.appendFiles(dead)
				}
				delete(st.indexes, k)
			}
		}
		dead = st.dropMixtures(dead, superseded, func(mk mixKey, _ mixRec) bool { return mk.table == name })
	case recDropIndex:
		k := rec.(ixKey)
		if superseded {
			dead = st.indexes[k].appendFiles(nil)
		}
		delete(st.indexes, k)
		dead = st.dropMixtures(dead, superseded, func(mk mixKey, _ mixRec) bool { return mk.ixKey == k })
	case recMixture:
		mr := rec.(mixRec)
		if ir, ok := st.indexes[ixKey{mr.table, mr.source}]; ok && mr.boundTo(ir) {
			if old, had := st.mixtures[mr.key()]; had && old.file != mr.file && superseded {
				dead = append(dead, old.file)
			}
			st.mixtures[mr.key()] = mr
		}
	case recDropMixture:
		k := rec.(mixKey)
		if mr, ok := st.mixtures[k]; ok {
			if superseded {
				dead = append(dead, mr.file)
			}
			delete(st.mixtures, k)
		}
	}
	return dead
}

// dropMixtures deletes the mixtures drop selects and, with superseded
// set, appends their files to dead.
func (st *manifestState) dropMixtures(dead []string, superseded bool, drop func(mixKey, mixRec) bool) []string {
	for mk, mr := range st.mixtures {
		if drop(mk, mr) {
			if superseded {
				dead = append(dead, mr.file)
			}
			delete(st.mixtures, mk)
		}
	}
	return dead
}

// appendChunkFiles appends the file of each chunk to dst.
func appendChunkFiles(dst []string, chunks []chunkRec) []string {
	dst = slices.Grow(dst, len(chunks))
	for _, c := range chunks {
		dst = append(dst, c.file)
	}
	return dst
}

// without filters files, in place, down to the names keep does not
// hold.
func without(files, keep []string) []string {
	if len(files) == 0 {
		return nil
	}
	named := make(map[string]bool, len(keep))
	for _, f := range keep {
		named[f] = true
	}
	out := files[:0]
	for _, f := range files {
		if !named[f] {
			out = append(out, f)
		}
	}
	return out
}

// admit rejects a well-formed record that cannot apply to the catalog:
// a dataset chunk must extend a live table at exactly its current
// length and keep it within maxFileRecords. Replay treats a rejected
// record as corrupt.
func (st *manifestState) admit(rtype byte, rec any) error {
	if rtype != recDatasetChunk {
		return nil
	}
	tc := rec.(tableChunk)
	t, ok := st.tables[tc.name]
	if !ok {
		return fmt.Errorf("manifest: chunk for unknown table %q", tc.name)
	}
	if n := t.records(); tc.chunk.base != n {
		return fmt.Errorf("manifest: chunk of table %q starts at %d, table has %d records", tc.name, tc.chunk.base, n)
	}
	if uint64(tc.chunk.base)+uint64(tc.chunk.count) > maxFileRecords {
		return fmt.Errorf("manifest: chunk grows table %q beyond %d records", tc.name, uint64(maxFileRecords))
	}
	return nil
}

// replay folds one frame payload into the catalog. A payload that does
// not decode, or cannot apply, ends the usable log.
func (st *manifestState) replay(payload []byte) error {
	rtype, rec, err := decodeRecord(payload)
	if err == nil {
		err = st.admit(rtype, rec)
	}
	if err != nil {
		return err
	}
	st.fold(rtype, rec, false)
	return nil
}

// decodeRecord parses one frame payload into its typed record.
func decodeRecord(payload []byte) (byte, any, error) {
	if len(payload) == 0 {
		return 0, nil, fmt.Errorf("manifest: empty record")
	}
	d := framelog.Decoder{B: payload[1:]}
	switch rtype := payload[0]; rtype {
	case recDataset:
		rec := datasetRec{name: d.Str()}
		c := chunkRec{file: d.Str(), count: d.Count(maxFileRecords)}
		c.crc, c.size = uint32(d.Uvarint()), int64(d.Uvarint())
		rec.chunks = []chunkRec{c}
		return rtype, rec, finish(&d, "dataset")
	case recDatasetChunk:
		tc := tableChunk{name: d.Str()}
		tc.chunk = readChunk(&d)
		return rtype, tc, finish(&d, "dataset-chunk")
	case recIndex, recIndexQ, recIndexChunked:
		rec := indexRec{
			table:       d.Str(),
			source:      d.Str(),
			fusion:      d.Str(),
			calibOracle: d.Str(),
			quantized:   rtype == recIndexQ,
		}
		rec.proxies = make([]string, d.Count(maxManifestList))
		for i := range rec.proxies {
			rec.proxies[i] = d.Str()
		}
		rec.n = d.Count(maxFileRecords)
		if rtype == recIndexChunked {
			ncols := d.Count(maxManifestList)
			if d.Err != nil {
				return 0, nil, finish(&d, "index")
			}
			rec.cols = make([]chunkRec, ncols)
			for i := range rec.cols {
				rec.cols[i] = readChunk(&d)
			}
			if d.Err == nil && !contiguous(rec.cols, rec.n) {
				d.Err = fmt.Errorf("column chunks do not tile %d records", rec.n)
			}
		} else {
			c := chunkRec{file: d.Str(), count: rec.n}
			c.crc, c.size = uint32(d.Uvarint()), int64(d.Uvarint())
			rec.cols = []chunkRec{c}
		}
		nsegs := d.Count(maxManifestList)
		if d.Err != nil {
			return 0, nil, finish(&d, "index")
		}
		rec.segs = make([]segRec, nsegs)
		for i := range rec.segs {
			rec.segs[i] = segRec{
				file:  d.Str(),
				base:  d.Count(maxFileRecords),
				count: d.Count(maxFileRecords),
				crc:   uint32(d.Uvarint()),
				size:  int64(d.Uvarint()),
			}
			if rec.quantized {
				rec.segs[i].codeFile = d.Str()
				rec.segs[i].codeCRC = uint32(d.Uvarint())
				rec.segs[i].codeSize = int64(d.Uvarint())
			}
		}
		return rtype, rec, finish(&d, "index")
	case recDropTable:
		name := d.Str()
		return rtype, name, finish(&d, "drop-table")
	case recDropIndex:
		k := ixKey{table: d.Str(), source: d.Str()}
		return rtype, k, finish(&d, "drop-index")
	case recMixture:
		rec := mixRec{
			table:    d.Str(),
			source:   d.Str(),
			n:        d.Count(maxFileRecords),
			colCRC:   uint32(d.Uvarint()),
			exponent: math.Float64frombits(d.Uvarint()),
			mix:      math.Float64frombits(d.Uvarint()),
			file:     d.Str(),
			crc:      uint32(d.Uvarint()),
			size:     int64(d.Uvarint()),
		}
		return rtype, rec, finish(&d, "mixture")
	case recDropMixture:
		k := mixKey{ixKey: ixKey{table: d.Str(), source: d.Str()}}
		k.exponent, k.mix = d.Uvarint(), d.Uvarint()
		return rtype, k, finish(&d, "drop-mixture")
	default:
		return 0, nil, fmt.Errorf("manifest: unknown record type %d", rtype)
	}
}

// contiguous reports whether chunks tile records [0, n) in order, each
// holding at least one record.
func contiguous(chunks []chunkRec, n int) bool {
	next := 0
	for _, c := range chunks {
		if c.base != next || c.count <= 0 {
			return false
		}
		next += c.count
	}
	return next == n
}

// encodeDataset encodes a table written whole: name plus its one chunk.
func encodeDataset(name string, c chunkRec) []byte {
	b := []byte{recDataset}
	b = framelog.AppendString(b, name)
	b = framelog.AppendString(b, c.file)
	b = binary.AppendUvarint(b, uint64(c.count))
	b = binary.AppendUvarint(b, uint64(c.crc))
	b = binary.AppendUvarint(b, uint64(c.size))
	return b
}

func encodeDatasetChunk(name string, c chunkRec) []byte {
	return appendChunk(framelog.AppendString([]byte{recDatasetChunk}, name), c)
}

func appendChunk(b []byte, c chunkRec) []byte {
	b = framelog.AppendString(b, c.file)
	b = binary.AppendUvarint(b, uint64(c.base))
	b = binary.AppendUvarint(b, uint64(c.count))
	b = binary.AppendUvarint(b, uint64(c.crc))
	return binary.AppendUvarint(b, uint64(c.size))
}

// encodeTable encodes a table's whole chunk list: its first chunk as a
// recDataset record, each later one as a recDatasetChunk record.
func encodeTable(rec datasetRec) [][]byte {
	out := [][]byte{encodeDataset(rec.name, rec.chunks[0])}
	for _, c := range rec.chunks[1:] {
		out = append(out, encodeDatasetChunk(rec.name, c))
	}
	return out
}

// encodeIndex encodes an index record: recIndex for a one-chunk
// column, byte-identical to the format before chunks, else
// recIndexChunked. A replayed legacy recIndexQ record (always one
// chunk) re-encodes as recIndexQ, so compaction keeps it unchanged.
func encodeIndex(rec indexRec) []byte {
	rtype := recIndex
	switch {
	case rec.quantized:
		rtype = recIndexQ
	case len(rec.cols) != 1:
		rtype = recIndexChunked
	}
	b := []byte{rtype}
	b = framelog.AppendString(b, rec.table)
	b = framelog.AppendString(b, rec.source)
	b = framelog.AppendString(b, rec.fusion)
	b = framelog.AppendString(b, rec.calibOracle)
	b = binary.AppendUvarint(b, uint64(len(rec.proxies)))
	for _, p := range rec.proxies {
		b = framelog.AppendString(b, p)
	}
	b = binary.AppendUvarint(b, uint64(rec.n))
	if rtype == recIndexChunked {
		b = binary.AppendUvarint(b, uint64(len(rec.cols)))
		for _, c := range rec.cols {
			b = appendChunk(b, c)
		}
	} else {
		b = framelog.AppendString(b, rec.cols[0].file)
		b = binary.AppendUvarint(b, uint64(rec.cols[0].crc))
		b = binary.AppendUvarint(b, uint64(rec.cols[0].size))
	}
	b = binary.AppendUvarint(b, uint64(len(rec.segs)))
	for _, s := range rec.segs {
		b = framelog.AppendString(b, s.file)
		b = binary.AppendUvarint(b, uint64(s.base))
		b = binary.AppendUvarint(b, uint64(s.count))
		b = binary.AppendUvarint(b, uint64(s.crc))
		b = binary.AppendUvarint(b, uint64(s.size))
		if rec.quantized {
			b = framelog.AppendString(b, s.codeFile)
			b = binary.AppendUvarint(b, uint64(s.codeCRC))
			b = binary.AppendUvarint(b, uint64(s.codeSize))
		}
	}
	return b
}

func encodeMixture(rec mixRec) []byte {
	b := []byte{recMixture}
	b = framelog.AppendString(b, rec.table)
	b = framelog.AppendString(b, rec.source)
	b = binary.AppendUvarint(b, uint64(rec.n))
	b = binary.AppendUvarint(b, uint64(rec.colCRC))
	b = binary.AppendUvarint(b, math.Float64bits(rec.exponent))
	b = binary.AppendUvarint(b, math.Float64bits(rec.mix))
	b = framelog.AppendString(b, rec.file)
	b = binary.AppendUvarint(b, uint64(rec.crc))
	b = binary.AppendUvarint(b, uint64(rec.size))
	return b
}

func encodeDropMixture(k mixKey) []byte {
	b := framelog.AppendString([]byte{recDropMixture}, k.table)
	b = framelog.AppendString(b, k.source)
	b = binary.AppendUvarint(b, k.exponent)
	return binary.AppendUvarint(b, k.mix)
}

func encodeDropTable(name string) []byte {
	return framelog.AppendString([]byte{recDropTable}, name)
}

func encodeDropIndex(k ixKey) []byte {
	b := framelog.AppendString([]byte{recDropIndex}, k.table)
	return framelog.AppendString(b, k.source)
}

// finish requires the payload to be fully consumed with no error.
func finish(d *framelog.Decoder, kind string) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("manifest: %s record: %w", kind, err)
	}
	return nil
}

// readChunk reads one chunk entry (file, base, count, crc, size) with a
// non-empty count.
func readChunk(d *framelog.Decoder) chunkRec {
	c := chunkRec{file: d.Str(), base: d.Count(maxFileRecords), count: d.Count(maxFileRecords)}
	c.crc, c.size = uint32(d.Uvarint()), int64(d.Uvarint())
	if d.Err == nil && c.count == 0 {
		d.Err = fmt.Errorf("empty chunk %q", c.file)
	}
	return c
}

// manifestFormat frames the MANIFEST: CRC32-Castagnoli, and records up
// to 8 MiB (an index record lists every segment file name; 8 MiB covers
// ~10^5 segments).
var manifestFormat = framelog.Format{Table: castagnoli, MaxFrame: 8 << 20}

// manifest is the open MANIFEST log.
type manifest struct{ *framelog.Log }

// openManifest replays dir/MANIFEST (creating it if absent), truncates
// any torn tail, and returns an append handle plus the live catalog.
func openManifest(dir string) (*manifest, manifestState, error) {
	st := newManifestState()
	log, err := framelog.Open(filepath.Join(dir, manifestName), manifestFormat, st.replay)
	if err != nil {
		return nil, manifestState{}, fmt.Errorf("storage: open manifest: %w", err)
	}
	return &manifest{log}, st, nil
}

// appendRecord frames, writes, and fsyncs one record payload. Catalog
// mutations are rare (registrations, flushes, invalidations), so every
// append is synced — a record present in the catalog is durable. A
// failed write or sync is fail-stop: it may leave a torn frame that
// would hide every later record from replay, so the log refuses every
// later write.
func (m *manifest) appendRecord(payload []byte) error {
	if err := m.Append(payload); err != nil {
		return err
	}
	return m.Sync()
}

// shouldCompact reports whether dead records dominate the log.
func (m *manifest) shouldCompact(live int64) bool {
	return m.Frames() >= compactMinFrames && m.Frames() > 2*live
}

// compact rewrites the live catalog to a fresh log that atomically
// replaces the old one. Deterministic record order (sorted names/keys)
// keeps compacted logs reproducible.
func (m *manifest) compact(st manifestState) error {
	return m.Rewrite(func(emit func([]byte) error) error {
		var payloads [][]byte
		for _, name := range st.tableNames() {
			payloads = append(payloads, encodeTable(st.tables[name])...)
		}
		for _, k := range st.indexKeys() {
			payloads = append(payloads, encodeIndex(st.indexes[k]))
		}
		// Mixture records follow every index record: replay binds each
		// one to the index record already folded in.
		mkeys := make([]mixKey, 0, len(st.mixtures))
		for k := range st.mixtures {
			mkeys = append(mkeys, k)
		}
		sort.Slice(mkeys, func(i, j int) bool {
			a, b := mkeys[i], mkeys[j]
			if a.ixKey != b.ixKey {
				return a.table < b.table || (a.table == b.table && a.source < b.source)
			}
			if a.exponent != b.exponent {
				return a.exponent < b.exponent
			}
			return a.mix < b.mix
		})
		for _, k := range mkeys {
			payloads = append(payloads, encodeMixture(st.mixtures[k]))
		}
		for _, p := range payloads {
			if err := emit(p); err != nil {
				return err
			}
		}
		return nil
	})
}
