package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"supg/internal/index"
)

// Tests for directories written by binaries that had the 16-bit
// quantized index: their recIndexQ records still replay and their .qcv
// code files are never read, spared by the orphan sweep while their
// record is live, and deleted by the flush that supersedes it.

// legacyDir copies testdata/manifest-v1 into a fresh directory: table
// t, a float index p, a legacy recIndexQ index q whose three
// 128-record segments each name a .qcv file, and a dropped third index.
func legacyDir(t *testing.T) string {
	t.Helper()
	src := filepath.Join("testdata", "manifest-v1")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		copyFile(t, filepath.Join(src, e.Name()), filepath.Join(dir, e.Name()))
	}
	return dir
}

// codeFiles lists the .qcv files in dir.
func codeFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.qcv"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// recoveredIndex returns the recovered index of source src.
func recoveredIndex(t *testing.T, s *Store, src string) RecoveredIndex {
	t.Helper()
	for _, ri := range s.RecoveredIndexes() {
		if ri.Source == src {
			return ri
		}
	}
	t.Fatalf("index %s not recovered: %+v", src, s.Stats())
	return RecoveredIndex{}
}

// assertLegacyRecordLive checks that q is still the replayed recIndexQ
// record with its three .qcv files on disk, and that it recovers as a
// float index answering like a fresh build over its column.
func assertLegacyRecordLive(t *testing.T, s *Store, dir string) {
	t.Helper()
	rec := s.st.indexes[ixKey{"t", "q"}]
	if !rec.quantized || rec.segs[0].codeFile == "" {
		t.Fatalf("legacy record not live: %+v", rec)
	}
	if got := codeFiles(t, dir); len(got) != 3 {
		t.Fatalf("%d .qcv files on disk, want the legacy record's 3", len(got))
	}
	if st := s.Stats(); st.IndexesRecovered != 2 || len(st.Degraded) != 0 {
		t.Fatalf("recovered %+v", st)
	}
	want, err := index.NewWithOptions(s.RecoveredTables()[0].Dataset.Scores()[:rec.n], index.Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEquivalent(t, want, recoveredIndex(t, s, "q").Index)
}

// TestCorruptLegacyCodeFileIsIgnored: recovery never reads a legacy
// .qcv file, so a bit-flipped or truncated one changes nothing — the
// index is adopted from its verified .seg and .col files, and the
// corrupt file stays until the record is superseded.
func TestCorruptLegacyCodeFileIsIgnored(t *testing.T) {
	for _, truncate := range []bool{false, true} {
		t.Run(fmt.Sprintf("truncate=%v", truncate), func(t *testing.T) {
			dir := legacyDir(t)
			corruptFile(t, codeFiles(t, dir)[0], truncate)
			s := openStore(t, Options{Dir: dir})
			if st := s.Stats(); st.TablesRecovered != 1 {
				t.Fatalf("recovered %+v", st)
			}
			assertLegacyRecordLive(t, s, dir)
		})
	}
}

// TestLegacyIndexUpgrade walks a legacy directory through its upgrade.
// Open and Close alone change nothing (TestParentManifestReplaysUnchanged
// pins the manifest bytes and the file set). A compaction while the
// legacy record is live re-encodes it unchanged and keeps its .qcv
// files. A flush of the grown index that cannot commit leaves the
// legacy record and its .qcv files in place; one that commits writes a
// float record over the reused .seg files, and only then are the .qcv
// files deleted. The upgraded directory recovers with zero sorts and
// answers like a fresh float build over the combined column.
func TestLegacyIndexUpgrade(t *testing.T) {
	dir := legacyDir(t)

	// Compaction while the legacy record is live.
	s := openStore(t, Options{Dir: dir})
	u := testDataset(t, 90, 16)
	for i := 0; s.compactions == 0; i++ {
		if i > 2*compactMinFrames {
			t.Fatal("no compaction")
		}
		if err := s.SaveDataset("u", u); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s = openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 128}})
	assertLegacyRecordLive(t, s, dir)

	// Grow the table and the index.
	d := s.RecoveredTables()[0].Dataset
	q := recoveredIndex(t, s, "q")
	extra := testDataset(t, 91, 200)
	combined := d.Append(extra)
	if err := s.AppendDataset("t", combined, d.Len()); err != nil {
		t.Fatal(err)
	}
	grown, err := q.Index.Append(extra.Scores())
	if err != nil {
		t.Fatal(err)
	}

	// A flush whose manifest record cannot commit.
	s.man.f.Close()
	if err := s.SaveIndex(q.IndexMeta, grown, s.Epoch("t")); err == nil {
		t.Fatal("flush through a failed manifest succeeded")
	}
	s.Close()
	s = openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 128}})
	assertLegacyRecordLive(t, s, dir)
	legacySegs := s.st.indexes[ixKey{"t", "q"}].segs

	// A flush that commits.
	persisted := s.segmentsPersisted
	if err := s.SaveIndex(q.IndexMeta, grown, s.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	rec := s.st.indexes[ixKey{"t", "q"}]
	if rec.quantized || len(rec.segs) != grown.Segments() {
		t.Fatalf("upgraded record: quantized=%v, %d segments", rec.quantized, len(rec.segs))
	}
	for i, sr := range legacySegs {
		if rec.segs[i].file != sr.file || rec.segs[i].codeFile != "" {
			t.Fatalf("segment %d: %+v, want %s reused without a code file", i, rec.segs[i], sr.file)
		}
	}
	if got, want := s.segmentsPersisted-persisted, int64(grown.Segments()-len(legacySegs)); got != want {
		t.Fatalf("flush wrote %d segment files, want only the %d new ones", got, want)
	}
	if left := codeFiles(t, dir); len(left) != 0 {
		t.Fatalf(".qcv files survived the commit: %v", left)
	}
	s.Close()

	sorts := index.BuildSortsTotal()
	s = openStore(t, Options{Dir: dir})
	if got := index.BuildSortsTotal() - sorts; got != 0 {
		t.Fatalf("recovery performed %d sorts", got)
	}
	if st := s.Stats(); st.IndexesRecovered != 2 || len(st.Degraded) != 0 {
		t.Fatalf("recovered %+v", st)
	}
	assertSameAnswers(t, buildIndex(t, combined, 128), recoveredIndex(t, s, "q").Index)
	if live, named := liveFiles(t, dir), referencedFiles(s.st); !reflect.DeepEqual(live, named) {
		t.Fatalf("files on disk %v, want exactly the catalog's %v", live, named)
	}
}

// TestQuantizedManifestRecordRoundTrip: both index record flavors
// round-trip through encode and decode — recIndex for a float record,
// and recIndexQ, with every .qcv reference, for a replayed legacy one —
// so compaction rewrites a live legacy record unchanged.
func TestQuantizedManifestRecordRoundTrip(t *testing.T) {
	recs := []indexRec{
		{
			table: "t", source: "p", fusion: "none", proxies: []string{"p"},
			n: 9, cols: []chunkRec{{file: "000001.col", count: 9, crc: 7, size: 100}},
			segs: []segRec{{file: "000002.seg", base: 0, count: 9, crc: 9, size: 160}},
		},
		{
			table: "t", source: "q", fusion: "none", proxies: []string{"q"},
			n: 9, cols: []chunkRec{{file: "000003.col", count: 9, crc: 8, size: 100}}, quantized: true,
			segs: []segRec{{file: "000004.seg", base: 0, count: 9, crc: 3, size: 160,
				codeFile: "000005.qcv", codeCRC: 5, codeSize: 64}},
		},
	}
	for _, rec := range recs {
		wantType := byte(recIndex)
		if rec.quantized {
			wantType = recIndexQ
		}
		rtype, got, err := decodeRecord(encodeIndex(rec))
		if err != nil {
			t.Fatalf("quantized=%v: %v", rec.quantized, err)
		}
		if rtype != wantType {
			t.Fatalf("quantized=%v encoded as record type %d, want %d", rec.quantized, rtype, wantType)
		}
		gr, ok := got.(indexRec)
		if !ok {
			t.Fatalf("decoded %T", got)
		}
		if gr.quantized != rec.quantized || gr.segs[0].codeFile != rec.segs[0].codeFile ||
			gr.segs[0].codeCRC != rec.segs[0].codeCRC || gr.segs[0].codeSize != rec.segs[0].codeSize {
			t.Fatalf("round trip diverged: %+v vs %+v", gr, rec)
		}
	}
}
