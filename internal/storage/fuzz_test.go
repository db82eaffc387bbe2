package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"supg/internal/dataset"
	"supg/internal/framelog"
	"supg/internal/index"
	"supg/internal/randx"
)

// Native fuzz targets for the on-disk parsers. These parsers consume
// bytes a crash (or an attacker with filesystem access) may have
// mangled arbitrarily, so the contract under fuzzing is: any input
// produces either a structurally-valid view or an error — never a
// panic, never a view whose sections disagree with its declared
// counts, and for the manifest never a replay that reads past the
// reported good offset.

// frame wraps a payload in the manifest's [len][crc][payload] framing.
func frame(payload []byte) []byte {
	b := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(payload, castagnoli))
	copy(b[8:], payload)
	return b
}

// replayManifest folds manifest bytes into the catalog as Open does. It
// never fails: corruption at offset X means the log is valid up to the
// last whole, decodable frame before X. It returns the frames applied
// and goodOff, where that prefix ends; Open truncates the tail there.
func replayManifest(data []byte) (st manifestState, frames, goodOff int64) {
	st = newManifestState()
	// A bytes.Reader fails only at its end, so Scan returns no error.
	frames, goodOff, _ = framelog.Scan(bytes.NewReader(data), manifestFormat, st.replay)
	return st, frames, goodOff
}

// corpusIndex is the index record of the manifest corpus.
var corpusIndex = indexRec{
	table: "t", source: "p", fusion: "none", proxies: []string{"p"},
	n: 10, cols: []chunkRec{{file: "000002.col", count: 10, crc: 8, size: 112}},
	segs: []segRec{{file: "000003.seg", base: 0, count: 10, crc: 9, size: 200}},
}

// validManifest returns a well-formed multi-record log for the corpus.
func validManifest() []byte {
	var b []byte
	b = append(b, frame(encodeDataset("t", chunkRec{file: "000001.ds", count: 10, crc: 7, size: 100}))...)
	b = append(b, frame(encodeIndex(corpusIndex))...)
	b = append(b, frame(encodeDropIndex(ixKey{"t", "p"}))...)
	b = append(b, frame(encodeDropTable("t"))...)
	return b
}

// mixtureManifest is an index record with a mixture bound to it, a
// second mixture, and a tombstone for the first.
func mixtureManifest() []byte {
	mr := mixRec{table: "t", source: "p", n: 10, colCRC: 8, exponent: 0.5, mix: 0.1, file: "000004.mix", crc: 11, size: 288}
	alt := mr
	alt.exponent, alt.file = 1, "000005.mix"
	var b []byte
	b = append(b, frame(encodeIndex(corpusIndex))...)
	b = append(b, frame(encodeMixture(mr))...)
	b = append(b, frame(encodeMixture(alt))...)
	b = append(b, frame(encodeDropMixture(mr.key()))...)
	return b
}

// chunkManifest is a table grown by two appended chunks, an index over
// a two-chunk column with a mixture bound to it, and a chunk record
// whose base skips past the table's length (corrupt: replay stops
// there).
func chunkManifest() []byte {
	ir := indexRec{
		table: "t", source: "p", fusion: "none", proxies: []string{"p"}, n: 16,
		cols: []chunkRec{{file: "000002.col", count: 10, crc: 8, size: 112}, {file: "000006.col", base: 10, count: 6, crc: 3, size: 80}},
		segs: []segRec{{file: "000003.seg", base: 0, count: 10, crc: 9, size: 200}, {file: "000007.seg", base: 10, count: 6, crc: 4, size: 136}},
	}
	var b []byte
	b = append(b, frame(encodeDataset("t", chunkRec{file: "000001.ds", count: 10, crc: 7, size: 100}))...)
	b = append(b, frame(encodeDatasetChunk("t", chunkRec{file: "000004.ds", base: 10, count: 4, crc: 5, size: 49}))...)
	b = append(b, frame(encodeDatasetChunk("t", chunkRec{file: "000005.ds", base: 14, count: 2, crc: 6, size: 33}))...)
	b = append(b, frame(encodeIndex(ir))...)
	b = append(b, frame(encodeMixture(mixRec{table: "t", source: "p", n: 16, colCRC: ir.colCRC(),
		exponent: 0.5, mix: 0.1, file: "000008.mix", crc: 11, size: 400}))...)
	b = append(b, frame(encodeDatasetChunk("t", chunkRec{file: "000009.ds", base: 20, count: 1, crc: 1, size: 25}))...)
	return b
}

// fileRefs counts the file names the catalog holds, repeats included.
func fileRefs(st *manifestState) int {
	n := len(st.mixtures)
	for _, t := range st.tables {
		n += len(t.chunks)
	}
	for _, ir := range st.indexes {
		n += len(ir.appendFiles(nil))
	}
	return n
}

// replaySupersedes replays data through a callback that checks apply's
// contract on every record: the files apply returns are exactly those
// the catalog named before the record and no longer names after it.
// Names are unique in a manifest the store wrote; a fuzzed catalog that
// names one file twice skips the check.
func replaySupersedes(t *testing.T, data []byte) {
	st := newManifestState()
	framelog.Scan(bytes.NewReader(data), manifestFormat, func(payload []byte) error {
		rtype, rec, err := decodeRecord(payload)
		if err == nil {
			err = st.admit(rtype, rec)
		}
		if err != nil {
			return err
		}
		before := st.files()
		unique := len(before) == fileRefs(&st)
		dead := st.apply(rtype, rec)
		after := st.files()
		if !unique || len(after) != fileRefs(&st) {
			return nil
		}
		lost := make(map[string]bool)
		for f := range before {
			if !after[f] {
				lost[f] = true
			}
		}
		reported := make(map[string]bool)
		for _, f := range dead {
			reported[f] = true
		}
		if len(reported) != len(dead) || !reflect.DeepEqual(reported, lost) {
			t.Fatalf("record type %d: apply reported %v, the catalog lost %v", rtype, dead, lost)
		}
		return nil
	})
}

func FuzzManifestReplay(f *testing.F) {
	f.Add(validManifest())
	f.Add(mixtureManifest())
	f.Add(chunkManifest())
	f.Add(chunkManifest()[:40])                                                           // torn chunk record
	f.Add(frame(encodeDatasetChunk("t", chunkRec{file: "000004.ds", base: 0, count: 4}))) // chunk of no table
	huge := maxFileRecords - 2
	f.Add(append(frame(encodeDataset("t", chunkRec{file: "000001.ds", count: huge})),
		frame(encodeDatasetChunk("t", chunkRec{file: "000004.ds", base: huge, count: 4}))...)) // past maxFileRecords
	f.Add(frame(encodeDropTable("t")))
	f.Add(validManifest()[:13])                   // torn mid-frame
	f.Add([]byte{})                               // empty log
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})         // zero-length frame
	f.Add([]byte{255, 255, 255, 255, 1, 2, 3, 4}) // absurd length
	corrupt := validManifest()
	corrupt[9] ^= 0xFF // payload bit flip -> CRC mismatch
	f.Add(corrupt)
	// A grown index flush over an index with a bound mixture: it reuses
	// the column chunk and segment and unbinds the mixture.
	f.Add(append(mixtureManifest(), chunkManifest()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, frames, goodOff := replayManifest(data)
		replaySupersedes(t, data)
		if goodOff < 0 || goodOff > int64(len(data)) {
			t.Fatalf("goodOff %d outside [0, %d]", goodOff, len(data))
		}
		// Replaying the good prefix alone must reproduce the fold exactly
		// (this is what Open commits to after truncating the tail).
		st2, frames2, off2 := replayManifest(data[:goodOff])
		if off2 != goodOff || frames2 != frames ||
			len(st2.tables) != len(st.tables) || len(st2.indexes) != len(st.indexes) ||
			len(st2.mixtures) != len(st.mixtures) {
			t.Fatalf("replay of the good prefix diverged: %d/%d frames, off %d/%d",
				frames2, frames, off2, goodOff)
		}
		// Every live mixture is bound to its live index record.
		for k, mr := range st.mixtures {
			if ir, ok := st.indexes[k.ixKey]; !ok || !mr.boundTo(ir) || mr.key() != k {
				t.Fatalf("mixture %+v outlived its index binding", k)
			}
		}
		// Every table's chunks tile it from base 0, so no replay leaves a
		// gap, and stay within maxFileRecords; every index column's
		// chunks tile its record count.
		for name, rec := range st.tables {
			next := 0
			for i, c := range rec.chunks {
				if c.base != next || c.count < 0 || (i > 0 && c.count == 0) {
					t.Fatalf("table %q chunk %d covers [%d, +%d), want base %d", name, i, c.base, c.count, next)
				}
				next += c.count
			}
			if len(rec.chunks) == 0 || next != rec.records() || next > maxFileRecords {
				t.Fatalf("table %q: %d chunks sum to %d records, table has %d", name, len(rec.chunks), next, rec.records())
			}
		}
		for k, rec := range st.indexes {
			if len(rec.cols) == 0 || chunksEnd(rec.cols) != rec.n || (len(rec.cols) > 1 && !contiguous(rec.cols, rec.n)) {
				t.Fatalf("index %+v: column chunks do not tile its %d records", k, rec.n)
			}
		}
		// Every surviving catalog file name must be safe to join.
		for _, rec := range st.tables {
			for _, c := range rec.chunks {
				if err := checkFileName(c.file); err == nil != (c.file != "" && !containsSep(c.file)) {
					t.Fatalf("file name check inconsistent for %q", c.file)
				}
			}
		}
	})
}

func containsSep(s string) bool {
	for _, c := range s {
		if c == '/' || c == '\\' {
			return true
		}
	}
	return s == "." || s == ".."
}

// validColumn/validSegment/validDS produce well-formed files via the
// production writers (routed through a temp dir).
func validColumn(f *testing.F) []byte {
	dir := f.TempDir()
	path := dir + "/c.col"
	if _, _, err := writeColumnFile(path, []float64{0.25, 0.5, 1}); err != nil {
		f.Fatal(err)
	}
	return readAll(f, path)
}

func validSegment(f *testing.F) []byte {
	dir := f.TempDir()
	path := dir + "/s.seg"
	sd := index.SegmentData{Base: 0, Perm: []int{0, 2, 1}, Sorted: []float64{0.1, 0.2, 0.9}}
	if _, _, err := writeSegmentFile(path, sd); err != nil {
		f.Fatal(err)
	}
	return readAll(f, path)
}

func validDS(f *testing.F) []byte {
	dir := f.TempDir()
	path := dir + "/d.ds"
	d := dataset.Beta(randx.New(2), 20, 0.5, 1)
	if _, _, err := writeDatasetFile(path, d); err != nil {
		f.Fatal(err)
	}
	return readAll(f, path)
}

func validMixture(f *testing.F) []byte {
	path := f.TempDir() + "/m.mix"
	mt := index.MixtureTables{
		Key:     index.MixtureKey{Exponent: 0.5, Mix: 0.1},
		Weights: []float64{0.2, 0.3, 0.5},
		Prob:    []float64{0.6, 0.9, 1},
		Alias:   []int32{2, 2, 2},
	}
	if _, _, err := writeMixtureFile(path, mt); err != nil {
		f.Fatal(err)
	}
	return readAll(f, path)
}

func readAll(f *testing.F, path string) []byte {
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

func FuzzColumnFile(f *testing.F) {
	valid := validColumn(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated body
	f.Add(valid[:colHeaderSize])
	lying := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(lying[16:], 1<<40) // count lies
	f.Add(lying)
	f.Add([]byte("SUPGCOL1 but far too short"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := parseColumnFile(data)
		if err != nil {
			return
		}
		if cf.count <= 0 || len(cf.scores) != 8*cf.count {
			t.Fatalf("accepted view disagrees with count: %d scores bytes for count %d", len(cf.scores), cf.count)
		}
	})
}

func FuzzSegmentFile(f *testing.F) {
	valid := validSegment(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:segHeaderSize])
	swapped := append([]byte{}, valid...)
	copy(swapped[:8], colMagic[:]) // wrong magic
	f.Add(swapped)
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := parseSegmentFile(data)
		if err != nil {
			return
		}
		if sf.count <= 0 || sf.base < 0 ||
			len(sf.perm) != 8*sf.count || len(sf.sorted) != 8*sf.count {
			t.Fatalf("accepted view disagrees with header: base %d count %d perm %d sorted %d",
				sf.base, sf.count, len(sf.perm), len(sf.sorted))
		}
	})
}

func FuzzDatasetFile(f *testing.F) {
	valid := validDS(f)
	f.Add(valid)
	f.Add(valid[:15]) // shorter than the header
	f.Add(valid[:len(valid)-1])
	lying := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(lying[8:], 1<<50)
	f.Add(lying)
	f.Fuzz(func(t *testing.T, data []byte) {
		df, err := parseDatasetFile(data)
		if err != nil {
			return
		}
		if df.count <= 0 || len(df.scores) != 8*df.count || len(df.labelBits) != (df.count+7)/8 {
			t.Fatalf("accepted view disagrees with count %d: %d score bytes, %d label bytes",
				df.count, len(df.scores), len(df.labelBits))
		}
	})
}

// FuzzMixtureFile feeds the .mix parser arbitrary bytes: it must check
// magic, version, count, header key and exact length, and any view it
// accepts must agree with its declared count.
func FuzzMixtureFile(f *testing.F) {
	valid := validMixture(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-4]) // truncated alias padding
	f.Add(valid[:mixHeaderSize])
	badVersion := append([]byte{}, valid...)
	binary.LittleEndian.PutUint32(badVersion[8:], 2)
	f.Add(badVersion)
	lying := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(lying[16:], 1<<31) // count lies
	f.Add(lying)
	nanKey := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(nanKey[24:], 0x7ff8000000000001)
	f.Add(nanKey)
	wrongMagic := append([]byte{}, valid...)
	copy(wrongMagic[:8], segMagic[:])
	f.Add(wrongMagic)
	f.Fuzz(func(t *testing.T, data []byte) {
		mf, err := parseMixtureFile(data)
		if err != nil {
			return
		}
		n := mf.count
		if n <= 0 || len(mf.weights) != 8*n || len(mf.prob) != 8*n || len(mf.alias) != 4*n ||
			int64(len(data)) != int64(mixHeaderSize+16*n+aliasSectionSize(n)) {
			t.Fatalf("accepted view disagrees with count %d: %d/%d/%d section bytes in %d",
				n, len(mf.weights), len(mf.prob), len(mf.alias), len(data))
		}
		if !finiteKey(mf.exponent, mf.mix) || [8]byte(data[:8]) != mixMagic {
			t.Fatalf("accepted key (%v, %v) or magic %q", mf.exponent, mf.mix, data[:8])
		}
	})
}
