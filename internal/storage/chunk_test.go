package storage

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"supg/internal/dataset"
	"supg/internal/index"
)

// Tests for chunked columns: a table's dataset and an index's score
// column grow by one immutable chunk file per append, recover whole
// (copied into heap memory when chunked), and are dropped whole when
// any chunk fails verification.

var chunkMeta = IndexMeta{Table: "t", Source: "p", Fusion: "none", Proxies: []string{"p"}}

// seedChunked persists a 5000-record table and its index, then grows
// both through `appends` appends of 900 records each (the table by
// AppendDataset, the index by a flush of its appended form), and
// returns the combined dataset and the grown index. The store is left
// open.
func seedChunked(t *testing.T, s *Store, appends int) (*dataset.Dataset, *index.ScoreIndex) {
	t.Helper()
	d := testDataset(t, 3, 5000)
	ix := buildIndex(t, d, 700)
	if err := s.SaveDataset("t", d); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveIndex(chunkMeta, ix, s.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	return seedChunkedMore(t, s, d, ix, appends)
}

// seedChunkedMore continues seedChunked's appends from (d, ix).
func seedChunkedMore(t *testing.T, s *Store, d *dataset.Dataset, ix *index.ScoreIndex, appends int) (*dataset.Dataset, *index.ScoreIndex) {
	t.Helper()
	for k := 0; k < appends; k++ {
		extra := testDataset(t, uint64(d.Len()), 900)
		base := d.Len()
		d = d.Append(extra)
		if err := s.AppendDataset("t", d, base); err != nil {
			t.Fatal(err)
		}
		grown, err := ix.Append(extra.Scores())
		if err != nil {
			t.Fatal(err)
		}
		ix = grown
		if err := s.SaveIndex(chunkMeta, ix, s.Epoch("t")); err != nil {
			t.Fatal(err)
		}
	}
	return d, ix
}

// liveFiles lists the data files in dir: everything but the MANIFEST
// and the lock file beside it.
func liveFiles(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	for _, e := range entries {
		if e.Name() != manifestName && filepath.Ext(e.Name()) != ".lock" {
			out[e.Name()] = true
		}
	}
	return out
}

// referencedFiles lists every data file the live catalog names.
func referencedFiles(st manifestState) map[string]bool { return st.files() }

func assertSameDataset(t *testing.T, want, got *dataset.Dataset) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("dataset has %d records, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if math.Float64bits(got.Score(i)) != math.Float64bits(want.Score(i)) || got.TrueLabel(i) != want.TrueLabel(i) {
			t.Fatalf("record %d diverged", i)
		}
	}
}

// TestAppendWritesOnlyTheTail pins the tentpole: each append adds one
// dataset chunk and one column chunk holding only the new records,
// never rewriting an earlier file, and a boot recovers the grown table
// and index byte-identically — zero sorts, the table's identity equal
// to DatasetCRC of the combined data, mixtures bound to the chunked
// column adopted — on the mmap and the heap path alike.
func TestAppendWritesOnlyTheTail(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
	d, ix := seedChunked(t, s, 0)
	first := liveFiles(t, dir)
	d, ix = seedChunkedMore(t, s, d, ix, 3)

	tbl := s.st.tables["t"]
	if len(tbl.chunks) != 4 || tbl.records() != d.Len() {
		t.Fatalf("table has %d chunks over %d records, want 4 over %d", len(tbl.chunks), tbl.records(), d.Len())
	}
	ir := s.st.indexes[ixKey{"t", "p"}]
	if len(ir.cols) != 4 || ir.n != ix.Len() {
		t.Fatalf("column has %d chunks over %d rows, want 4 over %d", len(ir.cols), ir.n, ix.Len())
	}
	for k := 1; k < 4; k++ {
		if c := tbl.chunks[k]; c.count != 900 || c.size != dataset.BinarySize(900) {
			t.Fatalf("dataset chunk %d holds %d records in %d bytes, want only the 900 appended", k, c.count, c.size)
		}
		if c := ir.cols[k]; c.count != 900 || c.size != colHeaderSize+8*900 {
			t.Fatalf("column chunk %d holds %d rows in %d bytes, want only the 900 appended", k, c.count, c.size)
		}
	}
	// Every file of the first flush is still live, unchanged by name.
	now := liveFiles(t, dir)
	for f := range first {
		if !now[f] {
			t.Fatalf("append rewrote or deleted %s", f)
		}
	}
	ix.Mixture(keyIS.Exponent, keyIS.Mix)
	if n, err := s.SaveMixtures("t", "p", ix); err != nil || n != 1 {
		t.Fatalf("checkpointed %d mixtures over the chunked column: %v", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, noMmap := range []bool{false, true} {
		sorts := index.BuildSortsTotal()
		s2 := openStore(t, Options{Dir: dir, NoMmap: noMmap, Index: index.Options{SegmentSize: 700}})
		got := mustLoad(t, s2.RecoveredIndexes()[0])
		st := s2.Stats()
		if st.TablesRecovered != 1 || st.IndexesRecovered != 1 || st.MixturesRecovered != 1 || len(st.Degraded) != 0 {
			t.Fatalf("noMmap=%v: recovered %+v", noMmap, st)
		}
		if got := index.BuildSortsTotal() - sorts; got != 0 {
			t.Fatalf("noMmap=%v: recovery sorted %d permutations", noMmap, got)
		}
		rt := s2.RecoveredTables()[0]
		assertSameDataset(t, d, rt.Dataset)
		if rt.CRC != DatasetCRC(d) {
			t.Fatalf("noMmap=%v: recovered identity %08x, want DatasetCRC %08x", noMmap, rt.CRC, DatasetCRC(d))
		}
		assertIndexEquivalent(t, ix, got)
		// Chunked columns are copied, not mapped: only segments count.
		var segBytes int64
		for _, sr := range s2.st.indexes[ixKey{"t", "p"}].segs {
			segBytes += sr.size
		}
		want := segBytes
		if noMmap || !mmapSupported {
			want = 0
		}
		if st.MappedBytes != want {
			t.Fatalf("noMmap=%v: %d bytes mapped, want %d", noMmap, st.MappedBytes, want)
		}
		builds := index.MixtureBuildsTotal()
		assertMixtureEquivalent(t, ix, got, keyIS)
		if index.MixtureBuildsTotal() != builds {
			t.Fatalf("noMmap=%v: the mixture bound to the chunked column was rebuilt", noMmap)
		}
		s2.Close()
	}
}

// TestOrphanChunkSweptTableKeepsLength: a crash after a chunk file is
// committed but before its record is appended leaves a complete,
// well-formed chunk no record names. Boot sweeps it, and the table and
// index keep their previous length.
func TestOrphanChunkSweptTableKeepsLength(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
	d, ix := seedChunked(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	extra := testDataset(t, 77, 900)
	if _, _, err := writeDatasetFile(filepath.Join(dir, "999990.ds"), extra); err != nil {
		t.Fatal(err)
	}
	if _, _, err := writeColumnFile(filepath.Join(dir, "999991.col"), extra.Scores()); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
	for _, name := range []string{"999990.ds", "999991.col"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan chunk %s survived Open", name)
		}
	}
	if st := s2.Stats(); st.TablesRecovered != 1 || st.IndexesRecovered != 1 || len(st.Degraded) != 0 {
		t.Fatalf("recovered %+v", st)
	}
	assertSameDataset(t, d, s2.RecoveredTables()[0].Dataset)
	assertIndexEquivalent(t, ix, mustLoad(t, s2.RecoveredIndexes()[0]))
	// The next append lands after the kept length, above the swept names.
	grown := d.Append(extra)
	if err := s2.AppendDataset("t", grown, d.Len()); err != nil {
		t.Fatal(err)
	}
	if c := s2.st.tables["t"].chunks; len(c) != 3 || c[2].base != d.Len() || c[2].file <= "999991.col" {
		t.Fatalf("append after the sweep: chunks %+v", c)
	}
}

// TestTornChunkRecordTruncated: a crash mid-append of a chunk record
// leaves a torn frame. Boot truncates it, recovers the table at its
// last whole record, and later appends land after the truncation.
func TestTornChunkRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
	d, _ := seedChunked(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := frame(encodeDatasetChunk("t", chunkRec{file: "999990.ds", base: d.Len(), count: 900, crc: 1, size: 7317}))
	if err := os.WriteFile(path, append(append([]byte{}, good...), torn[:len(torn)-4]...), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(good)) {
		t.Fatalf("torn chunk record not truncated: %v", err)
	}
	rt := s2.RecoveredTables()
	if len(rt) != 1 {
		t.Fatalf("recovered %d tables", len(rt))
	}
	assertSameDataset(t, d, rt[0].Dataset)
	extra := testDataset(t, 78, 900)
	if err := s2.AppendDataset("t", d.Append(extra), d.Len()); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openStore(t, Options{Dir: dir})
	assertSameDataset(t, d.Append(extra), s3.RecoveredTables()[0].Dataset)
}

// TestCorruptChunkDropsWhole: a bit-flipped or truncated chunk —
// dataset or column, first or later — drops its whole table or index,
// durably; the store never serves the chunks around it with a gap.
func TestCorruptChunkDropsWhole(t *testing.T) {
	for _, c := range []struct {
		name     string
		pick     func(st manifestState) string
		truncate bool
		table    bool // the table goes (and its index with it)
	}{
		{"dataset/middle", func(st manifestState) string { return st.tables["t"].chunks[1].file }, false, true},
		{"dataset/first", func(st manifestState) string { return st.tables["t"].chunks[0].file }, true, true},
		{"column/last", func(st manifestState) string { return st.indexes[ixKey{"t", "p"}].cols[2].file }, true, false},
		{"column/first", func(st manifestState) string { return st.indexes[ixKey{"t", "p"}].cols[0].file }, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
			d, _ := seedChunked(t, s, 2)
			victim := c.pick(s.st)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			corruptFile(t, filepath.Join(dir, victim), c.truncate)

			s2 := openStore(t, Options{Dir: dir})
			// A bad dataset chunk drops its table, and the index with it,
			// at Open; a bad column chunk drops the index when its first
			// use loads it.
			wantTables := 1
			st := s2.Stats()
			if c.table {
				wantTables = 0
				if st.IndexesRecovered != 0 {
					t.Fatalf("corrupt %s: the dropped table's index was staged: %+v", victim, st)
				}
			} else {
				st = loadCorrupt(t, s2)
			}
			if st.IndexesLive != 0 {
				t.Fatalf("corrupt %s: index served: %+v", victim, st)
			}
			if st.TablesRecovered != wantTables || st.TablesLive != wantTables {
				t.Fatalf("corrupt %s: %d tables recovered / %d live, want %d", victim, st.TablesRecovered, st.TablesLive, wantTables)
			}
			if len(st.Degraded) == 0 || !strings.Contains(st.Degraded[0], victim) {
				t.Fatalf("degradation note does not name %s: %v", victim, st.Degraded)
			}
			if !c.table {
				assertSameDataset(t, d, s2.RecoveredTables()[0].Dataset)
			}
			s2.Close()
			// The drop is durable, and the dropped chunks are swept.
			s3 := openStore(t, Options{Dir: dir})
			if st3 := s3.Stats(); len(st3.Degraded) != 0 || st3.TablesRecovered != wantTables || st3.IndexesRecovered != 0 {
				t.Fatalf("second boot: %+v", st3)
			}
			if files, ref := liveFiles(t, dir), referencedFiles(s3.st); !reflect.DeepEqual(files, ref) {
				t.Fatalf("files on disk %v, catalog names %v", files, ref)
			}
		})
	}
}

// TestCorruptChunkBaseStopsReplay: a chunk record whose base is not the
// table's current length would leave a gap or an overlap. Replay treats
// it as corrupt: it is not applied, the log is truncated there, and
// the file it names is swept.
func TestCorruptChunkBaseStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
	d, _ := seedChunked(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	extra := testDataset(t, 79, 900)
	crc, size, err := writeDatasetFile(filepath.Join(dir, "999990.ds"), extra)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []int{d.Len() - 1, d.Len() + 1, 0} {
		bad := frame(encodeDatasetChunk("t", chunkRec{file: "999990.ds", base: base, count: 900, crc: crc, size: size}))
		log := append(append(append([]byte{}, good...), bad...), frame(encodeDropIndex(ixKey{"t", "p"}))...)
		if st, _, off := replayManifest(log); off != int64(len(good)) || st.tables["t"].records() != d.Len() || len(st.indexes) != 1 {
			t.Fatalf("base %d: replay applied the chunk or went past it (to %d of %d)", base, off, len(good))
		}
	}
	bad := frame(encodeDatasetChunk("t", chunkRec{file: "999990.ds", base: d.Len() - 100, count: 900, crc: crc, size: size}))
	if err := os.WriteFile(path, append(append([]byte{}, good...), bad...), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, Options{Dir: dir})
	if st := s2.Stats(); st.TablesRecovered != 1 || st.IndexesRecovered != 1 || len(st.Degraded) != 0 {
		t.Fatalf("recovered %+v", st)
	}
	assertSameDataset(t, d, s2.RecoveredTables()[0].Dataset)
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(good)) {
		t.Fatalf("corrupt chunk record not truncated: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "999990.ds")); !os.IsNotExist(err) {
		t.Fatal("the corrupt record's chunk file survived Open")
	}
}

// TestDropsLeaveNoOrphanChunks: a whole re-registration (DropTable
// then SaveDataset, the engine's order), DropIndex and DropTable delete
// every chunk file they supersede, leaving exactly the files the
// catalog names.
func TestDropsLeaveNoOrphanChunks(t *testing.T) {
	assertExact := func(t *testing.T, s *Store, dir string) {
		t.Helper()
		if files, ref := liveFiles(t, dir), referencedFiles(s.st); !reflect.DeepEqual(files, ref) {
			t.Fatalf("files on disk %v, catalog names %v", files, ref)
		}
	}
	t.Run("reregister", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
		d, _ := seedChunked(t, s, 3)
		if err := s.DropTable("t"); err != nil {
			t.Fatal(err)
		}
		if err := s.SaveDataset("t", d); err != nil {
			t.Fatal(err)
		}
		if c := s.st.tables["t"].chunks; len(c) != 1 || c[0].count != d.Len() {
			t.Fatalf("re-registration left chunks %+v", c)
		}
		assertExact(t, s, dir)
	})
	t.Run("whole-write", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
		d, _ := seedChunked(t, s, 3)
		if err := s.SaveDataset("t", d); err != nil {
			t.Fatal(err)
		}
		assertExact(t, s, dir)
	})
	t.Run("drop-index", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
		seedChunked(t, s, 3)
		if err := s.DropIndex("t", "p"); err != nil {
			t.Fatal(err)
		}
		if m, _ := filepath.Glob(filepath.Join(dir, "*.col")); len(m) != 0 {
			t.Fatalf("DropIndex left column chunks %v", m)
		}
		assertExact(t, s, dir)
	})
	t.Run("drop-table", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
		seedChunked(t, s, 3)
		if err := s.DropTable("t"); err != nil {
			t.Fatal(err)
		}
		if files := liveFiles(t, dir); len(files) != 0 {
			t.Fatalf("DropTable left %v", files)
		}
	})
}

// TestAppendDatasetFallsBackToWholeWrite: when the store's live dataset
// is not exactly base records long — never persisted, or left behind by
// a failed write — an append writes the table whole, so the catalog
// never has a gap.
func TestAppendDatasetFallsBackToWholeWrite(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir})
	d := testDataset(t, 80, 3000)
	if err := s.AppendDataset("t", d, 2000); err != nil {
		t.Fatal(err)
	}
	if c := s.st.tables["t"].chunks; len(c) != 1 || c[0].count != 3000 {
		t.Fatalf("append to an unpersisted table wrote chunks %+v", c)
	}
	// The store holds 3000 records; an append from 3500 (a write for
	// [3000, 3500) was lost) must not leave a gap.
	d2 := d.Append(testDataset(t, 81, 1000))
	if err := s.AppendDataset("t", d2, 3500); err != nil {
		t.Fatal(err)
	}
	if c := s.st.tables["t"].chunks; len(c) != 1 || c[0].count != d2.Len() {
		t.Fatalf("append over a shorter stored table wrote chunks %+v", c)
	}
	if files := liveFiles(t, dir); len(files) != 1 {
		t.Fatalf("superseded dataset files left behind: %v", files)
	}
	s.Close()
	s2 := openStore(t, Options{Dir: dir})
	assertSameDataset(t, d2, s2.RecoveredTables()[0].Dataset)
}

// TestCrashAfterCompactionReplaysAppends: compaction renames its fresh
// log over MANIFEST and keeps appending through that file's handle
// (framelog's TestRewriteAdoptsFreshFile checks the handle itself).
// Records appended after a compaction must be in the file a boot reads:
// a copy of the directory taken without Close (all a kill -9 leaves)
// replays every record, chunk records included.
func TestCrashAfterCompactionReplaysAppends(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
	d, ix := seedChunked(t, s, 2)
	u := testDataset(t, 82, 64)
	for i := 0; s.compactions == 0; i++ {
		if i > 2*compactMinFrames {
			t.Fatal("no compaction")
		}
		if err := s.SaveDataset("u", u); err != nil {
			t.Fatal(err)
		}
	}
	d, ix = seedChunkedMore(t, s, d, ix, 2)
	if err := s.AppendDataset("u", u.Append(d), u.Len()); err != nil {
		t.Fatal(err)
	}

	killed := t.TempDir()
	for name := range liveFiles(t, dir) {
		copyFile(t, filepath.Join(dir, name), filepath.Join(killed, name))
	}
	copyFile(t, filepath.Join(dir, manifestName), filepath.Join(killed, manifestName))
	raw, err := os.ReadFile(filepath.Join(killed, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	st, frames, off := replayManifest(raw)
	if off != int64(len(raw)) || frames != s.man.Frames() {
		t.Fatalf("replay of the kill copy: %d of %d frames, to offset %d of %d", frames, s.man.Frames(), off, len(raw))
	}
	if !reflect.DeepEqual(st.tables, s.st.tables) || !reflect.DeepEqual(st.indexes, s.st.indexes) {
		t.Fatal("the kill copy replays a different catalog")
	}
	s2 := openStore(t, Options{Dir: killed, Index: index.Options{SegmentSize: 700}})
	if st := s2.Stats(); st.TablesRecovered != 2 || st.IndexesRecovered != 1 || len(st.Degraded) != 0 {
		t.Fatalf("kill copy recovered %+v", st)
	}
	assertSameDataset(t, d, s2.RecoveredTables()[0].Dataset)
	assertIndexEquivalent(t, ix, mustLoad(t, s2.RecoveredIndexes()[0]))
}

// TestCrashManifestWriteFailureIsFailStop: a write whose manifest
// record fails to commit once its data files are on disk deletes those
// files. The failure is fail-stop: the log may end in a torn frame that
// would hide every later record from replay, so the store refuses every
// later write with that error and writes no data file for it.
// framelog's FailWrites fails the record's write as a full disk would;
// an error that wraps it proves the data files were written first.
func TestCrashManifestWriteFailureIsFailStop(t *testing.T) {
	extra := testDataset(t, 83, 900)
	for _, first := range []string{"SaveDataset", "AppendDataset", "SaveIndex"} {
		dir := t.TempDir()
		s := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
		d, ix := seedChunked(t, s, 1)
		grown, err := ix.Append(extra.Scores())
		if err != nil {
			t.Fatal(err)
		}
		writes := map[string]func() error{
			"SaveDataset":   func() error { return s.SaveDataset("u", extra) },
			"AppendDataset": func() error { return s.AppendDataset("t", d.Append(extra), d.Len()) },
			"SaveIndex":     func() error { return s.SaveIndex(chunkMeta, grown, s.Epoch("t")) },
			"DropIndex":     func() error { return s.DropIndex("t", "p") },
			"DropTable":     func() error { return s.DropTable("t") },
		}
		before := liveFiles(t, dir)
		boom := errors.New("no space left on device")
		s.man.FailWrites(boom)
		if err := writes[first](); !errors.Is(err, boom) {
			t.Fatalf("%s through a failing manifest: %v, want the write failure", first, err)
		}
		if after := liveFiles(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s kept the files of its failed commit: %v -> %v", first, before, after)
		}
		for name, write := range writes {
			if got := write(); !errors.Is(got, boom) {
				t.Fatalf("%s after a failed %s: %v, want the write failure", name, first, got)
			}
		}
		if after := liveFiles(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("refused writes left files: %v -> %v", before, after)
		}
		if got := s.man.compact(s.st); !errors.Is(got, boom) {
			t.Fatalf("compaction after the failure: %v", got)
		}
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// chunkedLog returns the record payloads of a table grown by appends
// chunk records, each followed by the flush of its index over one more
// column chunk and segment: the manifest an ingest-heavy store replays
// at boot.
func chunkedLog(appends int) [][]byte {
	const rows = 8192
	seq := 0
	file := func(ext string) string {
		seq++
		return fmt.Sprintf("%06d%s", seq, ext)
	}
	ir := indexRec{table: "t", source: "p", fusion: "none", proxies: []string{"p"}}
	payloads := [][]byte{encodeDataset("t", chunkRec{file: file(".ds"), count: rows, crc: 1, size: 100})}
	for i := 0; i <= appends; i++ {
		base := i * rows
		if i > 0 {
			payloads = append(payloads, encodeDatasetChunk("t", chunkRec{file: file(".ds"), base: base, count: rows, crc: 2, size: 100}))
		}
		// Each flush writes a fresh record naming every file so far.
		ir.n = base + rows
		ir.cols = append(ir.cols[:len(ir.cols):len(ir.cols)], chunkRec{file: file(".col"), base: base, count: rows, crc: 3, size: 100})
		ir.segs = append(ir.segs[:len(ir.segs):len(ir.segs)], segRec{file: file(".seg"), base: base, count: rows, crc: 4, size: 100})
		payloads = append(payloads, encodeIndex(ir))
	}
	return payloads
}

// TestReplayBuildsNoSupersededLists bounds what replaying a chunked log
// allocates beyond decoding its records. Replay folds the catalog
// without the superseded-file lists a commit deletes: the fold's own
// allocations are the empty catalog, each dataset chunk's fresh chunk
// list and the maps' growth, under one per record. Building and
// filtering each flush's old and new file lists cost about three more
// per index record.
func TestReplayBuildsNoSupersededLists(t *testing.T) {
	payloads := chunkedLog(64)
	decode := testing.AllocsPerRun(10, func() {
		for _, p := range payloads {
			if _, _, err := decodeRecord(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	replay := testing.AllocsPerRun(10, func() {
		st := newManifestState()
		for _, p := range payloads {
			if err := st.replay(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("decode %.0f allocs, replay %.0f", decode, replay)
	if folds := replay - decode; folds > float64(len(payloads)) {
		t.Fatalf("folding %d records allocated %.0f times beyond decoding them", len(payloads), folds)
	}
}
