package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// The MANIFEST is an append-only log of catalog records, using the same
// frame discipline as the label store's WAL: each record is
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
// by rewriting live records to MANIFEST.compact and renaming over; the
// compacted file's open handle becomes the live log.

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

	// manMaxFrame bounds a single record (an index record lists every
	// segment file name; 8 MiB covers ~10^5 segments).
	manMaxFrame = 8 << 20

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
	frames   int64             // frames applied (live + dead)
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

// mixturesOf returns the live mixtures of every index key keep accepts.
func (st *manifestState) mixturesOf(keep func(ixKey) bool) []mixRec {
	var out []mixRec
	for k, r := range st.mixtures {
		if keep(k.ixKey) {
			out = append(out, r)
		}
	}
	return out
}

func (st *manifestState) apply(rtype byte, rec any) {
	switch rtype {
	case recDataset:
		st.tables[rec.(datasetRec).name] = rec.(datasetRec)
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
		st.indexes[k] = ir
		for mk, mr := range st.mixtures {
			if mk.ixKey == k && !mr.boundTo(ir) {
				delete(st.mixtures, mk)
			}
		}
	case recDropTable:
		name := rec.(string)
		delete(st.tables, name)
		for k := range st.indexes {
			if k.table == name {
				delete(st.indexes, k)
			}
		}
		for mk := range st.mixtures {
			if mk.table == name {
				delete(st.mixtures, mk)
			}
		}
	case recDropIndex:
		k := rec.(ixKey)
		delete(st.indexes, k)
		for mk := range st.mixtures {
			if mk.ixKey == k {
				delete(st.mixtures, mk)
			}
		}
	case recMixture:
		mr := rec.(mixRec)
		if ir, ok := st.indexes[ixKey{mr.table, mr.source}]; ok && mr.boundTo(ir) {
			st.mixtures[mr.key()] = mr
		}
	case recDropMixture:
		delete(st.mixtures, rec.(mixKey))
	}
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

// replayManifest folds the manifest bytes into the live catalog. It
// never fails: corruption at offset X means the log is valid up to the
// last whole, decodable frame before X, and goodOff reports where that
// prefix ends so the caller can truncate the tail.
func replayManifest(data []byte) (manifestState, int64) {
	st := newManifestState()
	off := int64(0)
	for int64(len(data))-off >= 8 {
		length := binary.LittleEndian.Uint32(data[off:])
		if length == 0 || length > manMaxFrame {
			break
		}
		end := off + 8 + int64(length)
		if end > int64(len(data)) {
			break
		}
		payload := data[off+8 : end]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		rtype, rec, err := decodeRecord(payload)
		if err == nil {
			err = st.admit(rtype, rec)
		}
		if err != nil {
			break
		}
		st.apply(rtype, rec)
		st.frames++
		off = end
	}
	return st, off
}

// decodeRecord parses one frame payload into its typed record.
func decodeRecord(payload []byte) (byte, any, error) {
	if len(payload) == 0 {
		return 0, nil, fmt.Errorf("manifest: empty record")
	}
	d := decoder{b: payload[1:]}
	switch rtype := payload[0]; rtype {
	case recDataset:
		rec := datasetRec{name: d.str()}
		c := chunkRec{file: d.str(), count: d.count(maxFileRecords)}
		c.crc, c.size = uint32(d.uvarint()), int64(d.uvarint())
		rec.chunks = []chunkRec{c}
		return rtype, rec, d.finish("dataset")
	case recDatasetChunk:
		tc := tableChunk{name: d.str()}
		tc.chunk = d.chunk()
		return rtype, tc, d.finish("dataset-chunk")
	case recIndex, recIndexQ, recIndexChunked:
		rec := indexRec{
			table:       d.str(),
			source:      d.str(),
			fusion:      d.str(),
			calibOracle: d.str(),
			quantized:   rtype == recIndexQ,
		}
		rec.proxies = make([]string, d.count(maxManifestList))
		for i := range rec.proxies {
			rec.proxies[i] = d.str()
		}
		rec.n = d.count(maxFileRecords)
		if rtype == recIndexChunked {
			ncols := d.count(maxManifestList)
			if d.err != nil {
				return 0, nil, d.finish("index")
			}
			rec.cols = make([]chunkRec, ncols)
			for i := range rec.cols {
				rec.cols[i] = d.chunk()
			}
			if d.err == nil && !contiguous(rec.cols, rec.n) {
				d.err = fmt.Errorf("column chunks do not tile %d records", rec.n)
			}
		} else {
			c := chunkRec{file: d.str(), count: rec.n}
			c.crc, c.size = uint32(d.uvarint()), int64(d.uvarint())
			rec.cols = []chunkRec{c}
		}
		nsegs := d.count(maxManifestList)
		if d.err != nil {
			return 0, nil, d.finish("index")
		}
		rec.segs = make([]segRec, nsegs)
		for i := range rec.segs {
			rec.segs[i] = segRec{
				file:  d.str(),
				base:  d.count(maxFileRecords),
				count: d.count(maxFileRecords),
				crc:   uint32(d.uvarint()),
				size:  int64(d.uvarint()),
			}
			if rec.quantized {
				rec.segs[i].codeFile = d.str()
				rec.segs[i].codeCRC = uint32(d.uvarint())
				rec.segs[i].codeSize = int64(d.uvarint())
			}
		}
		return rtype, rec, d.finish("index")
	case recDropTable:
		name := d.str()
		return rtype, name, d.finish("drop-table")
	case recDropIndex:
		k := ixKey{table: d.str(), source: d.str()}
		return rtype, k, d.finish("drop-index")
	case recMixture:
		rec := mixRec{
			table:    d.str(),
			source:   d.str(),
			n:        d.count(maxFileRecords),
			colCRC:   uint32(d.uvarint()),
			exponent: math.Float64frombits(d.uvarint()),
			mix:      math.Float64frombits(d.uvarint()),
			file:     d.str(),
			crc:      uint32(d.uvarint()),
			size:     int64(d.uvarint()),
		}
		return rtype, rec, d.finish("mixture")
	case recDropMixture:
		k := mixKey{ixKey: ixKey{table: d.str(), source: d.str()}}
		k.exponent, k.mix = d.uvarint(), d.uvarint()
		return rtype, k, d.finish("drop-mixture")
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
	b = appendString(b, name)
	b = appendString(b, c.file)
	b = binary.AppendUvarint(b, uint64(c.count))
	b = binary.AppendUvarint(b, uint64(c.crc))
	b = binary.AppendUvarint(b, uint64(c.size))
	return b
}

func encodeDatasetChunk(name string, c chunkRec) []byte {
	return appendChunk(appendString([]byte{recDatasetChunk}, name), c)
}

func appendChunk(b []byte, c chunkRec) []byte {
	b = appendString(b, c.file)
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
	b = appendString(b, rec.table)
	b = appendString(b, rec.source)
	b = appendString(b, rec.fusion)
	b = appendString(b, rec.calibOracle)
	b = binary.AppendUvarint(b, uint64(len(rec.proxies)))
	for _, p := range rec.proxies {
		b = appendString(b, p)
	}
	b = binary.AppendUvarint(b, uint64(rec.n))
	if rtype == recIndexChunked {
		b = binary.AppendUvarint(b, uint64(len(rec.cols)))
		for _, c := range rec.cols {
			b = appendChunk(b, c)
		}
	} else {
		b = appendString(b, rec.cols[0].file)
		b = binary.AppendUvarint(b, uint64(rec.cols[0].crc))
		b = binary.AppendUvarint(b, uint64(rec.cols[0].size))
	}
	b = binary.AppendUvarint(b, uint64(len(rec.segs)))
	for _, s := range rec.segs {
		b = appendString(b, s.file)
		b = binary.AppendUvarint(b, uint64(s.base))
		b = binary.AppendUvarint(b, uint64(s.count))
		b = binary.AppendUvarint(b, uint64(s.crc))
		b = binary.AppendUvarint(b, uint64(s.size))
		if rec.quantized {
			b = appendString(b, s.codeFile)
			b = binary.AppendUvarint(b, uint64(s.codeCRC))
			b = binary.AppendUvarint(b, uint64(s.codeSize))
		}
	}
	return b
}

func encodeMixture(rec mixRec) []byte {
	b := []byte{recMixture}
	b = appendString(b, rec.table)
	b = appendString(b, rec.source)
	b = binary.AppendUvarint(b, uint64(rec.n))
	b = binary.AppendUvarint(b, uint64(rec.colCRC))
	b = binary.AppendUvarint(b, math.Float64bits(rec.exponent))
	b = binary.AppendUvarint(b, math.Float64bits(rec.mix))
	b = appendString(b, rec.file)
	b = binary.AppendUvarint(b, uint64(rec.crc))
	b = binary.AppendUvarint(b, uint64(rec.size))
	return b
}

func encodeDropMixture(k mixKey) []byte {
	b := appendString([]byte{recDropMixture}, k.table)
	b = appendString(b, k.source)
	b = binary.AppendUvarint(b, k.exponent)
	return binary.AppendUvarint(b, k.mix)
}

func encodeDropTable(name string) []byte {
	return appendString([]byte{recDropTable}, name)
}

func encodeDropIndex(k ixKey) []byte {
	b := appendString([]byte{recDropIndex}, k.table)
	return appendString(b, k.source)
}

// decoder is a cursor over a record payload; the first error sticks and
// poisons all later reads (which return zero values).
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a uvarint bounded by limit, for counts used to size
// allocations or index files.
func (d *decoder) count(limit uint64) int {
	v := d.uvarint()
	if d.err == nil && v > limit {
		d.err = fmt.Errorf("count %d exceeds limit %d", v, limit)
		return 0
	}
	return int(v)
}

// chunk reads one chunk entry (file, base, count, crc, size) with a
// non-empty count.
func (d *decoder) chunk() chunkRec {
	c := chunkRec{file: d.str(), base: d.count(maxFileRecords), count: d.count(maxFileRecords)}
	c.crc, c.size = uint32(d.uvarint()), int64(d.uvarint())
	if d.err == nil && c.count == 0 {
		d.err = fmt.Errorf("empty chunk %q", c.file)
	}
	return c
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("string length %d exceeds remaining %d bytes", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// finish requires the payload to be fully consumed with no error.
func (d *decoder) finish(kind string) error {
	if d.err != nil {
		return fmt.Errorf("manifest: %s record: %w", kind, d.err)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("manifest: %s record: %d trailing bytes", kind, len(d.b))
	}
	return nil
}

// manifest is the open append handle on the MANIFEST file.
type manifest struct {
	path   string
	f      *os.File
	frames int64 // frames currently in the file
	// err is sticky: once an append or a compaction's commit fails, the
	// log's state on disk is unknown, so every later write reports it
	// instead of appending to a file a boot might not read (fail-stop).
	err error
}

// openManifest replays dir/MANIFEST (creating it if absent), truncates
// any torn tail, and returns an append handle plus the live catalog.
func openManifest(dir string) (*manifest, manifestState, error) {
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, manifestState{}, fmt.Errorf("storage: read manifest: %w", err)
	}
	st, goodOff := replayManifest(data)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644) //supg:atomiccommit-ok the manifest log is the commit path: records are CRC-framed, fsynced per append, and replay stops at the first torn record
	if err != nil {
		return nil, manifestState{}, fmt.Errorf("storage: open manifest: %w", err)
	}
	if goodOff < int64(len(data)) {
		if err := f.Truncate(goodOff); err != nil {
			f.Close()
			return nil, manifestState{}, fmt.Errorf("storage: truncate torn manifest tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, manifestState{}, fmt.Errorf("storage: sync manifest: %w", err)
		}
	}
	if _, err := f.Seek(goodOff, 0); err != nil {
		f.Close()
		return nil, manifestState{}, fmt.Errorf("storage: seek manifest: %w", err)
	}
	return &manifest{path: path, f: f, frames: st.frames}, st, nil
}

// appendRecord frames, writes, and fsyncs one record payload. Catalog
// mutations are rare (registrations, flushes, invalidations), so every
// append is synced — a record present in the catalog is durable. A
// failed write or sync is fail-stop: it may leave a torn frame that
// would hide every later record from replay.
func (m *manifest) appendRecord(payload []byte) error {
	if m.err != nil {
		return m.err
	}
	if len(payload) == 0 || len(payload) > manMaxFrame {
		return fmt.Errorf("storage: manifest record of %d bytes", len(payload))
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[8:], payload)
	if _, err := m.f.Write(frame); err != nil {
		m.err = fmt.Errorf("storage: append manifest record: %w", err)
		return m.err
	}
	if err := m.f.Sync(); err != nil {
		m.err = fmt.Errorf("storage: sync manifest: %w", err)
		return m.err
	}
	m.frames++
	return nil
}

// shouldCompact reports whether dead records dominate the log.
func (m *manifest) shouldCompact(live int64) bool {
	return m.frames >= compactMinFrames && m.frames > 2*live
}

// compact rewrites the live catalog to a fresh log and atomically
// renames it over the old one. Deterministic record order (sorted
// names/keys) keeps compacted logs reproducible. The fresh log's open
// handle, positioned at its end, becomes the live log, so no reopen can
// fail and leave appends going to the unlinked old file.
func (m *manifest) compact(st manifestState) error {
	if m.err != nil {
		return m.err
	}
	tmp := m.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644) //supg:atomiccommit-ok compaction's tmp log; fsynced below, then renamed over the manifest
	if err != nil {
		return fmt.Errorf("storage: compact manifest: %w", err)
	}
	var buf []byte
	appendFrame := func(payload []byte) {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
	}
	names := make([]string, 0, len(st.tables))
	for name := range st.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, payload := range encodeTable(st.tables[name]) {
			appendFrame(payload)
		}
	}
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
	for _, k := range keys {
		appendFrame(encodeIndex(st.indexes[k]))
	}
	// Mixture records follow every index record: replay binds each one
	// to the index record already folded in.
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
		appendFrame(encodeMixture(st.mixtures[k]))
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: compact manifest: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, m.path); err != nil { //supg:atomiccommit-ok this IS the compaction commit point: tmp was fsynced above and the directory is synced after
		return fail(err)
	}
	// The old handle now names an unlinked file; the tmp handle is the
	// log from here on.
	m.f.Close()
	m.f = f
	m.frames = st.live()
	// Until the directory is synced a crash can bring the old log back
	// and lose records appended to the new one, while the files those
	// records superseded are already deleted: fail-stop.
	if err := syncDir(filepath.Dir(m.path)); err != nil {
		m.err = fmt.Errorf("storage: compact manifest: sync dir: %w", err)
		return m.err
	}
	return nil
}

func (m *manifest) Close() error { return m.f.Close() }

// appendString appends a uvarint length prefix followed by the bytes.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
