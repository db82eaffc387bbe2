package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"supg/internal/dataset"
	"supg/internal/framelog"
	"supg/internal/index"
	"supg/internal/sampling"
)

// On-disk file formats. Four write-once file kinds live next to the
// MANIFEST log, all little-endian, all with every section starting at a
// multiple of 8 bytes so page-aligned mappings can alias float64/uint64
// words directly:
//
//	dataset (.ds)  — one chunk of a table's dataset: records [base,
//	                 base+count) in the dataset binary interchange format
//	                 verbatim (magic "SUPGDS1\n" + count + scores + label
//	                 bits); scores start at offset 16, already 8-aligned.
//	                 A table written whole is one chunk; each append adds
//	                 one. The base lives in the manifest record only.
//	column  (.col) — one chunk of an index's score column: "SUPGCOL1"
//	                 magic, u32 version, u32 pad, u64 count, u64 reserved
//	                 (32-byte header), then count float64 proxy scores,
//	                 rows [base, base+count) of the column the index was
//	                 built over (post-fusion, -0 normalized). A fresh
//	                 build writes one chunk; a flush after an append adds
//	                 one for the new rows. The base lives in the manifest
//	                 record only.
//	segment (.seg) — "SUPGSEG1" magic, u32 version, u32 pad, u64 base,
//	                 u64 count, u64 reserved (40-byte header), then the
//	                 permutation (count u64 local ids) and the sorted
//	                 scores (count float64).
//	mixture (.mix) — "SUPGMIX1" magic, u32 version, u32 pad, u64 count,
//	                 f64 exponent, f64 mix, u64 reserved (48-byte
//	                 header), then one cached IS sampling mixture of an
//	                 index: count float64 normalized weights, count
//	                 float64 alias probabilities, and count int32 alias
//	                 indices zero-padded to the next multiple of 8.
//	                 Written at clean shutdown (Store.SaveMixtures) and
//	                 read only when a query first asks for its
//	                 (exponent, mix) key.
//
// None of the files embed their own checksum: the CRC32 (Castagnoli)
// and exact byte size of each file are recorded in the manifest entry
// that references it, so a file and its integrity metadata commit
// atomically and a truncated or bit-flipped file is detected before
// any of its bytes are trusted. Parsers here do structural validation
// only (magic, version, counts, exact length); semantic validation of
// segment contents is index.FromExternal's O(n) proof, and a mixture's
// alias table is bounds-checked by sampling.AliasFromTables.
//
// Legacy: directories written by older binaries may also hold .qcv
// files, 16-bit score codes a since-removed quantized index kept next
// to each .seg file. They are never written or read again: recovery
// adopts such an index from its .seg and .col files alone, the orphan
// sweep leaves the .qcv files of a live legacy record in place, and the
// flush that supersedes the record deletes them (see recIndexQ).

const (
	formatVersion = 1

	colHeaderSize = 32
	segHeaderSize = 40
	mixHeaderSize = 48

	// maxFileRecords caps declared counts, mirroring dataset.maxRecords.
	maxFileRecords = 1 << 33
)

var (
	colMagic = [8]byte{'S', 'U', 'P', 'G', 'C', 'O', 'L', '1'}
	segMagic = [8]byte{'S', 'U', 'P', 'G', 'S', 'E', 'G', '1'}
	mixMagic = [8]byte{'S', 'U', 'P', 'G', 'M', 'I', 'X', '1'}

	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// columnFile is the parsed structural view of a .col file.
type columnFile struct {
	count  int
	scores []byte // count*8 bytes of little-endian float64
}

func parseColumnFile(data []byte) (columnFile, error) {
	if len(data) < colHeaderSize {
		return columnFile{}, fmt.Errorf("column file: %d bytes, shorter than the %d-byte header", len(data), colHeaderSize)
	}
	if [8]byte(data[:8]) != colMagic {
		return columnFile{}, fmt.Errorf("column file: bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		return columnFile{}, fmt.Errorf("column file: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint64(data[16:])
	if count == 0 || count > maxFileRecords {
		return columnFile{}, fmt.Errorf("column file: implausible score count %d", count)
	}
	if want := colHeaderSize + 8*int64(count); int64(len(data)) != want {
		return columnFile{}, fmt.Errorf("column file: %d bytes, want %d for %d scores", len(data), want, count)
	}
	return columnFile{count: int(count), scores: data[colHeaderSize:]}, nil
}

// segmentFile is the parsed structural view of a .seg file.
type segmentFile struct {
	base   int
	count  int
	perm   []byte // count*8 bytes of little-endian uint64 local ids
	sorted []byte // count*8 bytes of little-endian float64
}

func parseSegmentFile(data []byte) (segmentFile, error) {
	if len(data) < segHeaderSize {
		return segmentFile{}, fmt.Errorf("segment file: %d bytes, shorter than the %d-byte header", len(data), segHeaderSize)
	}
	if [8]byte(data[:8]) != segMagic {
		return segmentFile{}, fmt.Errorf("segment file: bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		return segmentFile{}, fmt.Errorf("segment file: unsupported version %d", v)
	}
	base := binary.LittleEndian.Uint64(data[16:])
	count := binary.LittleEndian.Uint64(data[24:])
	if count == 0 || count > maxFileRecords || base > maxFileRecords {
		return segmentFile{}, fmt.Errorf("segment file: implausible base %d / count %d", base, count)
	}
	if want := segHeaderSize + 16*int64(count); int64(len(data)) != want {
		return segmentFile{}, fmt.Errorf("segment file: %d bytes, want %d for %d entries", len(data), want, count)
	}
	permEnd := segHeaderSize + 8*int(count)
	return segmentFile{
		base:   int(base),
		count:  int(count),
		perm:   data[segHeaderSize:permEnd],
		sorted: data[permEnd:],
	}, nil
}

// aliasSectionSize is a mixture file's alias section size: count int32
// values zero-padded to the next multiple of 8.
func aliasSectionSize(count int) int {
	return (4*count + 7) &^ 7
}

// mixtureFile is the parsed structural view of a .mix file.
type mixtureFile struct {
	count    int
	exponent float64
	mix      float64
	weights  []byte // count*8 bytes of little-endian float64
	prob     []byte // count*8 bytes of little-endian float64
	alias    []byte // count*4 bytes of little-endian int32
}

func parseMixtureFile(data []byte) (mixtureFile, error) {
	if len(data) < mixHeaderSize {
		return mixtureFile{}, fmt.Errorf("mixture file: %d bytes, shorter than the %d-byte header", len(data), mixHeaderSize)
	}
	if [8]byte(data[:8]) != mixMagic {
		return mixtureFile{}, fmt.Errorf("mixture file: bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		return mixtureFile{}, fmt.Errorf("mixture file: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint64(data[16:])
	if count == 0 || count > sampling.MaxAliasLen {
		return mixtureFile{}, fmt.Errorf("mixture file: implausible count %d", count)
	}
	exponent := math.Float64frombits(binary.LittleEndian.Uint64(data[24:]))
	mix := math.Float64frombits(binary.LittleEndian.Uint64(data[32:]))
	if !finiteKey(exponent, mix) {
		return mixtureFile{}, fmt.Errorf("mixture file: non-finite key (%g, %g)", exponent, mix)
	}
	n := int(count)
	if want := int64(mixHeaderSize + 16*n + aliasSectionSize(n)); int64(len(data)) != want {
		return mixtureFile{}, fmt.Errorf("mixture file: %d bytes, want %d for %d entries", len(data), want, count)
	}
	probAt := mixHeaderSize + 8*n
	aliasAt := probAt + 8*n
	return mixtureFile{
		count:    n,
		exponent: exponent,
		mix:      mix,
		weights:  data[mixHeaderSize:probAt],
		prob:     data[probAt:aliasAt],
		alias:    data[aliasAt : aliasAt+4*n],
	}, nil
}

// finiteKey reports whether a mixture (exponent, mix) key can be
// persisted: NaN and infinite keys never match a lookup.
func finiteKey(exponent, mix float64) bool {
	return !math.IsNaN(exponent) && !math.IsInf(exponent, 0) && !math.IsNaN(mix) && !math.IsInf(mix, 0)
}

// datasetFile is the parsed structural view of a .ds file (the dataset
// binary interchange format: magic "SUPGDS1\n", u64 count, scores,
// LSB-first label bits).
type datasetFile struct {
	count     int
	scores    []byte // count*8 bytes of little-endian float64
	labelBits []byte // ceil(count/8) bytes
}

var dsMagic = [8]byte{'S', 'U', 'P', 'G', 'D', 'S', '1', '\n'}

func parseDatasetFile(data []byte) (datasetFile, error) {
	if len(data) < 16 {
		return datasetFile{}, fmt.Errorf("dataset file: %d bytes, shorter than the 16-byte header", len(data))
	}
	if [8]byte(data[:8]) != dsMagic {
		return datasetFile{}, fmt.Errorf("dataset file: bad magic %q", data[:8])
	}
	count := binary.LittleEndian.Uint64(data[8:])
	if count == 0 || count > maxFileRecords {
		return datasetFile{}, fmt.Errorf("dataset file: implausible record count %d", count)
	}
	n := int(count)
	if want := dataset.BinarySize(n); int64(len(data)) != want {
		return datasetFile{}, fmt.Errorf("dataset file: %d bytes, want %d for %d records", len(data), want, count)
	}
	scoresEnd := 16 + 8*n
	return datasetFile{
		count:     n,
		scores:    data[16:scoresEnd],
		labelBits: data[scoresEnd:],
	}, nil
}

// decodeLabelBits expands LSB-first label bits into labels, one bit per
// element.
func decodeLabelBits(labels []bool, bits []byte) {
	for i := range labels {
		labels[i] = bits[i/8]&(1<<(i%8)) != 0
	}
}

// decodeFloat64s is the portable (copying) alternative to aliasFloat64s.
func decodeFloat64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	decodeFloat64sInto(out, b)
	return out
}

// decodeFloat64sInto decodes len(b)/8 little-endian float64s into the
// front of dst.
func decodeFloat64sInto(dst []float64, b []byte) {
	for i := range dst[:len(b)/8] {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// decodeInt32s is the portable (copying) alternative to aliasInt32s.
func decodeInt32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// decodeInts is the portable (copying) alternative to aliasInts.
// Out-of-range values become negative ints, rejected downstream by
// index.FromExternal's bounds checks just like aliased ones.
func decodeInts(b []byte) []int {
	out := make([]int, len(b)/8)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}

// atomicWriter streams a file body through a buffered writer and a
// running CRC, then commits it with fsync + atomic rename. Callers
// write everything, then Commit.
type atomicWriter struct {
	path string
	tmp  string
	f    *os.File
	bw   *bufio.Writer
	crc  hash.Hash32
	size int64
	w    io.Writer
}

func newAtomicWriter(path string) (*atomicWriter, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644) //supg:atomiccommit-ok atomicWriter IS the tmp→fsync→rename helper; this opens its tmp side
	if err != nil {
		return nil, err
	}
	aw := &atomicWriter{path: path, tmp: tmp, f: f, bw: bufio.NewWriterSize(f, 1<<16), crc: crc32.New(castagnoli)}
	aw.w = io.MultiWriter(aw.bw, aw.crc)
	return aw, nil
}

func (aw *atomicWriter) Write(p []byte) (int, error) {
	n, err := aw.w.Write(p)
	aw.size += int64(n)
	return n, err
}

// Commit flushes, fsyncs, and renames the temp file into place, then
// fsyncs the directory so the rename itself is durable. On any error
// the temp file is removed.
func (aw *atomicWriter) Commit() (crc uint32, size int64, err error) {
	defer func() {
		if err != nil {
			aw.f.Close()
			os.Remove(aw.tmp)
		}
	}()
	if err = aw.bw.Flush(); err != nil {
		return 0, 0, err
	}
	if err = aw.f.Sync(); err != nil {
		return 0, 0, err
	}
	if err = aw.f.Close(); err != nil {
		return 0, 0, err
	}
	if err = os.Rename(aw.tmp, aw.path); err != nil { //supg:atomiccommit-ok atomicWriter.Commit's rename: the tmp file was flushed, fsynced, and closed above
		return 0, 0, err
	}
	if err = framelog.SyncDir(filepath.Dir(aw.path)); err != nil {
		return 0, 0, err
	}
	return aw.crc.Sum32(), aw.size, nil
}

// Abort discards the temp file (no-op after a successful Commit).
func (aw *atomicWriter) Abort() {
	aw.f.Close()
	os.Remove(aw.tmp)
}

// writeAtomic writes hdr, then what body writes, to path through an
// atomicWriter and commits it; on any error the temp file is removed.
func writeAtomic(path string, hdr []byte, body func(io.Writer) error) (crc uint32, size int64, err error) {
	aw, err := newAtomicWriter(path)
	if err != nil {
		return 0, 0, err
	}
	if _, err = aw.Write(hdr); err == nil {
		err = body(aw)
	}
	if err != nil {
		aw.Abort()
		return 0, 0, err
	}
	return aw.Commit()
}

// writeDatasetFile persists d in the dataset binary interchange format.
func writeDatasetFile(path string, d *dataset.Dataset) (crc uint32, size int64, err error) {
	return writeAtomic(path, nil, func(w io.Writer) error { return dataset.WriteBinary(w, d) })
}

// writeColumnFile persists an index's contiguous score column.
func writeColumnFile(path string, scores []float64) (crc uint32, size int64, err error) {
	var hdr [colHeaderSize]byte
	copy(hdr[:8], colMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(scores)))
	return writeAtomic(path, hdr[:], func(w io.Writer) error { return writeFloat64s(w, scores) })
}

// writeSegmentFile persists one immutable segment view: its base, the
// sorting permutation, and the sorted scores.
func writeSegmentFile(path string, sd index.SegmentData) (crc uint32, size int64, err error) {
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(sd.Base))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(sd.Perm)))
	return writeAtomic(path, hdr[:], func(w io.Writer) error {
		if err := writeInts(w, sd.Perm); err != nil {
			return err
		}
		return writeFloat64s(w, sd.Sorted)
	})
}

// writeMixtureFile persists one cached sampling mixture: its key in the
// header, then the weights, the alias probabilities, and the alias
// indices, streamed section by section (never buffered whole).
func writeMixtureFile(path string, mt index.MixtureTables) (crc uint32, size int64, err error) {
	var hdr [mixHeaderSize]byte
	copy(hdr[:8], mixMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(mt.Weights)))
	binary.LittleEndian.PutUint64(hdr[24:], math.Float64bits(mt.Key.Exponent))
	binary.LittleEndian.PutUint64(hdr[32:], math.Float64bits(mt.Key.Mix))
	return writeAtomic(path, hdr[:], func(w io.Writer) error {
		if err := writeFloat64s(w, mt.Weights); err != nil {
			return err
		}
		if err := writeFloat64s(w, mt.Prob); err != nil {
			return err
		}
		return writeInt32s(w, mt.Alias)
	})
}

// encodeChunk is the scratch granularity for bulk encoding (64 KiB).
const encodeChunk = 1 << 13

func writeFloat64s(w io.Writer, vals []float64) error {
	buf := make([]byte, 8*min(len(vals), encodeChunk))
	for len(vals) > 0 {
		n := min(len(vals), encodeChunk)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// writeInt32s writes a mixture's alias section: the values plus zero
// padding to the next multiple of 8 (see aliasSectionSize).
func writeInt32s(w io.Writer, vals []int32) error {
	pad := aliasSectionSize(len(vals)) - 4*len(vals)
	buf := make([]byte, 4*min(len(vals), encodeChunk))
	for len(vals) > 0 {
		n := min(len(vals), encodeChunk)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	if pad > 0 {
		var zero [8]byte
		if _, err := w.Write(zero[:pad]); err != nil {
			return err
		}
	}
	return nil
}

func writeInts(w io.Writer, vals []int) error {
	buf := make([]byte, 8*min(len(vals), encodeChunk))
	for len(vals) > 0 {
		n := min(len(vals), encodeChunk)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}
