package storage

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"supg/internal/dataset"
	"supg/internal/framelog"
	"supg/internal/index"
	"supg/internal/randx"
)

func testDataset(t testing.TB, seed uint64, n int) *dataset.Dataset {
	t.Helper()
	return dataset.Beta(randx.New(seed), n, 0.05, 2)
}

func buildIndex(t testing.TB, d *dataset.Dataset, segSize int) *index.ScoreIndex {
	t.Helper()
	ix, err := index.NewWithOptions(d.Scores(), index.Options{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func openStore(t testing.TB, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// seedStore persists one table and one index into dir and returns the
// originals for comparison.
func seedStore(t testing.TB, dir string, segSize int) (*dataset.Dataset, *index.ScoreIndex) {
	t.Helper()
	d := testDataset(t, 3, 5000)
	ix := buildIndex(t, d, segSize)
	s := openStore(t, Options{Dir: dir})
	if err := s.SaveDataset("t", d); err != nil {
		t.Fatal(err)
	}
	meta := IndexMeta{Table: "t", Source: "p", Fusion: "none", Proxies: []string{"p"}}
	if err := s.SaveIndex(meta, ix, s.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return d, ix
}

// mustLoad runs a staged index's first-use check and returns the
// index, failing the test when the check does not pass.
func mustLoad(t testing.TB, ri RecoveredIndex) *index.ScoreIndex {
	t.Helper()
	ix, err := ri.Load()
	if err != nil {
		t.Fatalf("load index %s/%s: %v", ri.Table, ri.Source, err)
	}
	return ix
}

// assertIndexEquivalent checks that got has want's shape and answers
// threshold queries bit-for-bit identically to it.
func assertIndexEquivalent(t *testing.T, want, got *index.ScoreIndex) {
	t.Helper()
	if got.Len() != want.Len() || got.Segments() != want.Segments() {
		t.Fatalf("shape diverged: %d/%d records, %d/%d segments",
			got.Len(), want.Len(), got.Segments(), want.Segments())
	}
	assertSameAnswers(t, want, got)
}

// assertSameAnswers checks that got answers threshold queries
// bit-for-bit identically to want, whatever the two segmentations.
func assertSameAnswers(t *testing.T, want, got *index.ScoreIndex) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%d records, want %d", got.Len(), want.Len())
	}
	for _, tau := range []float64{0, 0.01, 0.1, 0.5, 0.9, 0.999, 1} {
		if g, w := got.CountAtLeast(tau), want.CountAtLeast(tau); g != w {
			t.Fatalf("CountAtLeast(%g) = %d, want %d", tau, g, w)
		}
		g := got.AppendAtLeast(nil, tau)
		w := want.AppendAtLeast(nil, tau)
		if len(g) != len(w) {
			t.Fatalf("AppendAtLeast(%g) returned %d ids, want %d", tau, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("AppendAtLeast(%g)[%d] = %d, want %d", tau, i, g[i], w[i])
			}
		}
	}
	for _, k := range []int{1, 7, want.Len() / 2, want.Len()} {
		gb := math.Float64bits(got.KthHighest(k))
		wb := math.Float64bits(want.KthHighest(k))
		if gb != wb {
			t.Fatalf("KthHighest(%d) bits %016x, want %016x", k, gb, wb)
		}
	}
}

func TestRoundTripRecovery(t *testing.T) {
	for _, noMmap := range []bool{false, true} {
		t.Run(fmt.Sprintf("noMmap=%v", noMmap), func(t *testing.T) {
			dir := t.TempDir()
			d, ix := seedStore(t, dir, 700)

			sortsBefore := index.BuildSortsTotal()
			s := openStore(t, Options{Dir: dir, NoMmap: noMmap})
			if got := index.BuildSortsTotal() - sortsBefore; got != 0 {
				t.Fatalf("recovery performed %d permutation sorts, want 0", got)
			}
			st := s.Stats()
			if st.TablesRecovered != 1 || st.IndexesRecovered != 1 {
				t.Fatalf("recovered %d tables / %d indexes, want 1/1 (degraded: %v)",
					st.TablesRecovered, st.IndexesRecovered, st.Degraded)
			}
			if st.SegmentsRecovered != ix.Segments() {
				t.Fatalf("recovered %d segments, want %d", st.SegmentsRecovered, ix.Segments())
			}
			if len(st.Degraded) != 0 {
				t.Fatalf("unexpected degradation: %v", st.Degraded)
			}
			if !noMmap && mmapSupported && st.MappedBytes == 0 {
				t.Fatal("mmap platform recovered without mapping any bytes")
			}
			if noMmap && st.MappedBytes != 0 {
				t.Fatalf("NoMmap recovery reports %d mapped bytes", st.MappedBytes)
			}

			rt := s.RecoveredTables()
			if len(rt) != 1 || rt[0].Name != "t" {
				t.Fatalf("recovered tables = %+v", rt)
			}
			rd := rt[0].Dataset
			if rd.Len() != d.Len() {
				t.Fatalf("dataset length %d, want %d", rd.Len(), d.Len())
			}
			for i := 0; i < d.Len(); i++ {
				if math.Float64bits(rd.Score(i)) != math.Float64bits(d.Score(i)) {
					t.Fatalf("score %d diverged", i)
				}
				if rd.TrueLabel(i) != d.TrueLabel(i) {
					t.Fatalf("label %d diverged", i)
				}
			}
			if rt[0].CRC != DatasetCRC(d) {
				t.Fatal("recovered CRC disagrees with DatasetCRC")
			}

			ri := s.RecoveredIndexes()
			if len(ri) != 1 || ri[0].Table != "t" || ri[0].Source != "p" {
				t.Fatalf("recovered indexes = %+v", ri)
			}
			if len(ri[0].Proxies) != 1 || ri[0].Proxies[0] != "p" || ri[0].Fusion != "none" {
				t.Fatalf("provenance diverged: %+v", ri[0].IndexMeta)
			}
			assertIndexEquivalent(t, ix, mustLoad(t, ri[0]))
			if got := index.BuildSortsTotal() - sortsBefore; got != 0 {
				t.Fatalf("the first-use load performed %d permutation sorts, want 0", got)
			}
		})
	}
}

// TestRecoveredIndexAppends pins that an index recovered over mapped
// memory can still grow: Append must not write through the read-only
// mapping.
func TestRecoveredIndexAppends(t *testing.T) {
	dir := t.TempDir()
	d, ix := seedStore(t, dir, 700)
	// Matching index options make the recovered index tile its appended
	// tail exactly like the original would.
	s := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
	ri := s.RecoveredIndexes()
	if len(ri) != 1 {
		t.Fatalf("recovered %d indexes", len(ri))
	}
	extra := testDataset(t, 9, 1200).Scores()
	grown, err := mustLoad(t, ri[0]).Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEquivalent(t, want, grown)
	// The original rows must still read back identically after the grow.
	for i := 0; i < d.Len(); i++ {
		if math.Float64bits(grown.Score(i)) != math.Float64bits(d.Score(i)) {
			t.Fatalf("append mutated recovered score %d", i)
		}
	}
}

// TestRecoveredAppendsCopyMappedColumns pins that a recovered table and
// index over mapped memory copy their columns on the first append
// instead of growing into the read-only mapping (a write there would
// fault), and that the heap copies take the next append in place.
func TestRecoveredAppendsCopyMappedColumns(t *testing.T) {
	dir := t.TempDir()
	d, ix := seedStore(t, dir, 700)
	s := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
	recD, recIx := s.RecoveredTables()[0].Dataset, mustLoad(t, s.RecoveredIndexes()[0])
	if s.Stats().MappedBytes == 0 {
		t.Fatal("nothing was mapped")
	}
	extra := testDataset(t, 9, 1200)
	tailA, tailB := extra.Slice(0, 600), extra.Slice(600, 1200)

	gotD := recD.Append(tailA)
	gotIx, err := recIx.Append(tailA.Scores())
	if err != nil {
		t.Fatal(err)
	}
	if &gotD.Scores()[0] == &recD.Scores()[0] || &gotIx.Scores()[0] == &recIx.Scores()[0] {
		t.Fatal("append to a recovered column grew into its mapping")
	}
	nextD := gotD.Append(tailB)
	nextIx, err := gotIx.Append(tailB.Scores())
	if err != nil {
		t.Fatal(err)
	}
	if &nextD.Scores()[0] != &gotD.Scores()[0] || &nextIx.Scores()[0] != &gotIx.Scores()[0] {
		t.Fatal("append to a copied column did not grow in place")
	}

	wantIx, err := ix.Append(extra.Scores())
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEquivalent(t, wantIx, nextIx)
	if got, want := DatasetCRC(nextD), DatasetCRC(d.Append(extra)); got != want {
		t.Fatalf("grown dataset CRC %08x, want %08x", got, want)
	}
	if got, want := DatasetCRC(recD), DatasetCRC(d); got != want {
		t.Fatalf("recovered dataset CRC %08x after the appends, want %08x", got, want)
	}
}

func corruptFile(t *testing.T, path string, truncate bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncate {
		data = data[:len(data)/2]
	} else {
		data[len(data)/2] ^= 0x40
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// findFile returns the lone file in dir with the extension.
func findFile(t *testing.T, dir, ext string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+ext))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no %s file in %s (%v)", ext, dir, err)
	}
	return matches[0]
}

// loadCorrupt requires s to have staged exactly one index and its
// first-use load to fail, and returns the store's stats after it.
func loadCorrupt(t *testing.T, s *Store) Stats {
	t.Helper()
	ri := s.RecoveredIndexes()
	if len(ri) != 1 {
		t.Fatalf("Open staged %d indexes, want 1", len(ri))
	}
	if ix, err := ri[0].Load(); err == nil || ix != nil {
		t.Fatalf("the corrupt index loaded: %v", err)
	}
	return s.Stats()
}

func TestTornSegmentFileDegradesIndexOnly(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 700)
	corruptFile(t, findFile(t, dir, ".seg"), true)

	s := openStore(t, Options{Dir: dir})
	st := loadCorrupt(t, s)
	if st.TablesRecovered != 1 {
		t.Fatalf("table lost with the segment: %+v", st)
	}
	if st.IndexesLive != 0 {
		t.Fatalf("torn segment served: %+v", st)
	}
	if len(st.Degraded) == 0 || !strings.Contains(st.Degraded[0], "index t/p") {
		t.Fatalf("degradation note missing: %v", st.Degraded)
	}
	// The drop is durable: a second boot sees a clean catalog, not the
	// same corruption again.
	s.Close()
	s2 := openStore(t, Options{Dir: dir})
	if st2 := s2.Stats(); len(st2.Degraded) != 0 || st2.TablesRecovered != 1 || st2.IndexesRecovered != 0 {
		t.Fatalf("second boot re-discovered the corruption: %+v", st2)
	}
}

func TestCorruptColumnCRCDegradesIndexOnly(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 700)
	corruptFile(t, findFile(t, dir, ".col"), false)

	s := openStore(t, Options{Dir: dir})
	st := loadCorrupt(t, s)
	if st.TablesRecovered != 1 || st.IndexesLive != 0 {
		t.Fatalf("bit-flipped column: recovered %d tables / %d indexes live", st.TablesRecovered, st.IndexesLive)
	}
	if len(st.Degraded) == 0 || !strings.Contains(st.Degraded[0], "CRC mismatch") {
		t.Fatalf("degradation note missing: %v", st.Degraded)
	}
	s.Close()
	if st2 := openStore(t, Options{Dir: dir}).Stats(); len(st2.Degraded) != 0 || st2.IndexesRecovered != 0 {
		t.Fatalf("second boot re-discovered the corruption: %+v", st2)
	}
}

// TestCorruptIndexFoundOnFirstUse: Open reads no index file. It stages
// both indexes of a table, one with a flipped segment byte, without a
// note and maps only the dataset. Each index's first load checks its
// own files: the intact one answers like a fresh build, and the corrupt
// one fails with its CRC error, noted and durably dropped, with nothing
// it mapped left mapped or counted, so a second Open stages only the
// intact one.
func TestCorruptIndexFoundOnFirstUse(t *testing.T) {
	dir := t.TempDir()
	d, ix := seedStore(t, dir, 700)
	s := openStore(t, Options{Dir: dir})
	meta := IndexMeta{Table: "t", Source: "q", Fusion: "none", Proxies: []string{"q"}}
	if err := s.SaveIndex(meta, buildIndex(t, d, 700), s.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	victim := s.st.indexes[ixKey{"t", "q"}].segs[1].file
	dsSize := s.st.tables["t"].chunks[0].size
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filepath.Join(dir, victim), false)

	s2 := openStore(t, Options{Dir: dir})
	st := s2.Stats()
	if len(st.Degraded) != 0 || st.TablesRecovered != 1 || st.IndexesRecovered != 2 || st.IndexesLive != 2 {
		t.Fatalf("Open judged an index: %+v", st)
	}
	if !mmapSupported {
		dsSize = 0
	}
	if st.MappedBytes != dsSize {
		t.Fatalf("Open mapped %d bytes, want the dataset file's %d alone", st.MappedBytes, dsSize)
	}
	ri := s2.RecoveredIndexes()
	if ri[0].Source != "p" || ri[1].Source != "q" || ri[1].Len != d.Len() {
		t.Fatalf("staged %+v", ri)
	}
	// Concurrent first uses share one load: one index, mapped once.
	loaded := make([]*index.ScoreIndex, 4)
	var wg sync.WaitGroup
	for g := range loaded {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			loaded[g], _ = ri[0].Load()
		}(g)
	}
	wg.Wait()
	for _, got := range loaded {
		if got != loaded[0] {
			t.Fatal("concurrent first uses loaded the index twice")
		}
	}
	assertIndexEquivalent(t, ix, mustLoad(t, ri[0]))
	var ixSize int64
	if mmapSupported {
		ir := s2.st.indexes[ixKey{"t", "p"}]
		for _, c := range ir.cols {
			ixSize += c.size
		}
		for _, sr := range ir.segs {
			ixSize += sr.size
		}
	}
	if grew := s2.Stats().MappedBytes - st.MappedBytes; grew != ixSize {
		t.Fatalf("loading the intact index mapped %d bytes, want its files' %d", grew, ixSize)
	}
	mapped := s2.Stats().MappedBytes
	got, err := ri[1].Load()
	if got != nil || err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("the corrupt index loaded: %v", err)
	}
	// The good column and first segment were mapped before the corrupt
	// segment failed its check; the failed load releases them.
	if after := s2.Stats().MappedBytes; after != mapped {
		t.Fatalf("the failed load left %d bytes mapped", after-mapped)
	}
	if _, again := ri[1].Load(); again != err {
		t.Fatalf("a second Load re-ran the check: %v, then %v", err, again)
	}
	st = s2.Stats()
	if len(st.Degraded) != 1 || !strings.Contains(st.Degraded[0], "index t/q") || !strings.Contains(st.Degraded[0], victim) {
		t.Fatalf("degradation notes %q, want one naming index t/q and %s", st.Degraded, victim)
	}
	if _, live := s2.st.indexes[ixKey{"t", "q"}]; live || st.IndexesLive != 1 {
		t.Fatalf("the corrupt index is still live: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, victim)); !os.IsNotExist(err) {
		t.Fatalf("the dropped index's segment file survived: %v", err)
	}
	s2.Close()

	s3 := openStore(t, Options{Dir: dir})
	if st3, ri3 := s3.Stats(), s3.RecoveredIndexes(); len(st3.Degraded) != 0 || len(ri3) != 1 || ri3[0].Source != "p" {
		t.Fatalf("second boot: staged %+v, degraded %q", ri3, st3.Degraded)
	}
}

func TestCorruptDatasetDropsTableAndIndexes(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 700)
	corruptFile(t, findFile(t, dir, ".ds"), false)

	s := openStore(t, Options{Dir: dir})
	st := s.Stats()
	if st.TablesRecovered != 0 || st.IndexesRecovered != 0 {
		t.Fatalf("corrupt dataset served: %+v", st)
	}
	if st.TablesLive != 0 || st.IndexesLive != 0 {
		t.Fatalf("corrupt catalog entries still live: %+v", st)
	}
}

// TestDatasetCountMismatchUnmaps re-records a table's dataset file with
// one record more than the intact file holds: the file passes its size
// and CRC check, the count check drops the table, and the load releases
// the mapping it made.
func TestDatasetCountMismatchUnmaps(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 700)
	s := openStore(t, Options{Dir: dir})
	c := s.st.tables["t"].chunks[0]
	c.count++
	if err := s.man.appendRecord(encodeDataset("t", c)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	st := openStore(t, Options{Dir: dir}).Stats()
	if st.TablesRecovered != 0 || len(st.Degraded) != 1 || !strings.Contains(st.Degraded[0], "manifest says") {
		t.Fatalf("a dataset file of the wrong length was served: %+v", st)
	}
	if st.MappedBytes != 0 {
		t.Fatalf("the dropped table left %d bytes mapped", st.MappedBytes)
	}
}

func TestTornManifestTailTruncated(t *testing.T) {
	dir := t.TempDir()
	d, ix := seedStore(t, dir, 700)

	// Simulate a crash mid-append: a partial frame at the tail.
	path := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, good...), 0xEE, 0x01, 0x00, 0x00, 0xde, 0xad)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s := openStore(t, Options{Dir: dir})
	st := s.Stats()
	if st.TablesRecovered != 1 || st.IndexesRecovered != 1 {
		t.Fatalf("torn tail lost committed state: %+v", st)
	}
	assertIndexEquivalent(t, ix, mustLoad(t, s.RecoveredIndexes()[0]))
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(good)) {
		t.Fatalf("tail not truncated: %d bytes, want %d (%v)", fi.Size(), len(good), err)
	}
	// The handle appends after the truncated prefix, not after the tear.
	if err := s.SaveDataset("u", d); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openStore(t, Options{Dir: dir})
	if st := s2.Stats(); st.TablesRecovered != 2 {
		t.Fatalf("post-truncation append lost: %+v", st)
	}
}

func TestCorruptManifestFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 700)
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the FIRST frame: its CRC fails, so the whole
	// log (dataset and index records both) is unusable — recovery must
	// come up empty but functional, never serve the poisoned records.
	data[10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, Options{Dir: dir})
	if st := s.Stats(); st.TablesRecovered != 0 || st.IndexesRecovered != 0 {
		t.Fatalf("poisoned manifest served records: %+v", st)
	}
	// Still usable for writes.
	if err := s.SaveDataset("t", testDataset(t, 4, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestCrashMidCompactionLitterRemoved(t *testing.T) {
	dir := t.TempDir()
	_, ix := seedStore(t, dir, 700)
	// A crash between writing MANIFEST.compact and the rename leaves the
	// temp file; the real MANIFEST is still authoritative.
	litter := filepath.Join(dir, manifestName+".compact")
	if err := os.WriteFile(litter, []byte("half-written compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, Options{Dir: dir})
	if st := s.Stats(); st.TablesRecovered != 1 || st.IndexesRecovered != 1 {
		t.Fatalf("compaction litter broke recovery: %+v", st)
	}
	assertIndexEquivalent(t, ix, mustLoad(t, s.RecoveredIndexes()[0]))
	if _, err := os.Stat(litter); !os.IsNotExist(err) {
		t.Fatal("MANIFEST.compact litter survived Open")
	}
}

func TestOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	_, ix := seedStore(t, dir, 700)
	for _, name := range []string{"999990.ds", "999991.col", "999992.seg", "999993.col.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A crash between committing a .mix file and appending its manifest
	// record leaves a complete, well-formed mixture file no record names.
	ix.Mixture(0.5, 0.1)
	if _, _, err := writeMixtureFile(filepath.Join(dir, "999994.mix"), ix.CachedMixtureTables()[0]); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, Options{Dir: dir})
	for _, name := range []string{"999990.ds", "999991.col", "999992.seg", "999993.col.tmp", "999994.mix"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived Open", name)
		}
	}
	// Referenced files are untouched and the sequence stays above every
	// number seen on disk, so new files never collide with swept names.
	if st := s.Stats(); st.TablesRecovered != 1 || st.IndexesRecovered != 1 {
		t.Fatalf("sweep removed referenced files: %+v", st)
	}
	// (*.tmp litter is removed before the sequence scan, so only the
	// data-file orphans constrain it.)
	if s.seq < 999994 {
		t.Fatalf("seq %d not advanced past swept orphans", s.seq)
	}
	if st := s.Stats(); st.MixturesRecovered != 0 || st.MixturesLive != 0 {
		t.Fatalf("an unrecorded mixture file was adopted: %+v", st)
	}
}

// TestSecondOpenIsLocked: two live stores on one directory append at
// one manifest offset, so each overwrites the other's records, and the
// second Open's litter and orphan sweeps delete the first store's
// in-flight files. A second Open must fail with framelog.ErrLocked and
// remove nothing, and both tables must be there once the stores close.
func TestSecondOpenIsLocked(t *testing.T) {
	dir := t.TempDir()
	first := openStore(t, Options{Dir: dir})
	// A data file mid-write and one whose manifest record is not yet
	// appended: litter and orphans to a store that is not running.
	inFlight := []string{"999990.ds.tmp", "999991.ds"}
	for _, name := range inFlight {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("in flight"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	second, err := Open(Options{Dir: dir})
	if err == nil {
		t.Cleanup(func() { second.Close() })
		t.Error("a second Open of a live directory succeeded")
	} else if !errors.Is(err, framelog.ErrLocked) {
		t.Fatalf("second Open of a live directory returned %v, want framelog.ErrLocked", err)
	}
	for _, name := range inFlight {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("the second Open removed the live store's %s: %v", name, err)
		}
	}
	if err := first.SaveDataset("t1", testDataset(t, 1, 100)); err != nil {
		t.Fatal(err)
	}
	if second == nil {
		if err := first.Close(); err != nil {
			t.Fatal(err)
		}
		second = openStore(t, Options{Dir: dir})
	}
	if err := second.SaveDataset("t2", testDataset(t, 2, 100)); err != nil {
		t.Fatal(err)
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, rt := range openStore(t, Options{Dir: dir}).RecoveredTables() {
		names = append(names, rt.Name)
	}
	if !slices.Equal(names, []string{"t1", "t2"}) {
		t.Fatalf("recovered tables %v, want [t1 t2]", names)
	}
}

func TestSaveIndexSuperseded(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(t, 5, 2000)
	ix := buildIndex(t, d, 600)
	s := openStore(t, Options{Dir: dir})
	if err := s.SaveDataset("t", d); err != nil {
		t.Fatal(err)
	}
	epoch := s.Epoch("t")
	// DropIndex always advances the epoch, even with nothing live: the
	// invalidation outranks any in-flight flush.
	s.DropIndex("t", "p")
	meta := IndexMeta{Table: "t", Source: "p", Fusion: "none", Proxies: []string{"p"}}
	if err := s.SaveIndex(meta, ix, epoch); err != ErrSuperseded {
		t.Fatalf("stale flush: %v, want ErrSuperseded", err)
	}
	if st := s.Stats(); st.IndexesLive != 0 {
		t.Fatal("superseded flush landed in the catalog")
	}
	// No file litter either.
	if m, _ := filepath.Glob(filepath.Join(dir, "*.seg")); len(m) != 0 {
		t.Fatalf("superseded flush left segment files: %v", m)
	}
	// The current epoch flushes fine.
	if err := s.SaveIndex(meta, ix, s.Epoch("t")); err != nil {
		t.Fatal(err)
	}
}

func TestDropTableCascades(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 700)
	s := openStore(t, Options{Dir: dir})
	if err := s.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TablesLive != 0 || st.IndexesLive != 0 {
		t.Fatalf("drop left live state: %+v", st)
	}
	for _, ext := range []string{".ds", ".col", ".seg"} {
		if m, _ := filepath.Glob(filepath.Join(dir, "*"+ext)); len(m) != 0 {
			t.Fatalf("drop left %s files: %v", ext, m)
		}
	}
	s.Close()
	s2 := openStore(t, Options{Dir: dir})
	if st := s2.Stats(); st.TablesRecovered != 0 || st.IndexesRecovered != 0 {
		t.Fatalf("dropped table resurrected: %+v", st)
	}
}

func TestManifestCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir})
	d := testDataset(t, 6, 64)
	// Re-saving the same table makes every prior record dead; once the
	// log crosses compactMinFrames with 1 live record it must compact.
	for i := 0; i < compactMinFrames+4; i++ {
		if err := s.SaveDataset("t", d); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after %d dead appends", compactMinFrames+3)
	}
	if st.ManifestRecords >= compactMinFrames {
		t.Fatalf("manifest still has %d frames after compaction", st.ManifestRecords)
	}
	s.Close()
	s2 := openStore(t, Options{Dir: dir})
	rt := s2.RecoveredTables()
	if len(rt) != 1 || rt[0].Dataset.Len() != d.Len() {
		t.Fatalf("compacted catalog lost the live table: %+v", s2.Stats())
	}
}

func TestSaveIndexReusesUnchangedSegments(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(t, 7, 2000)
	ix := buildIndex(t, d, 500) // 4 segments
	s := openStore(t, Options{Dir: dir})
	if err := s.SaveDataset("t", d); err != nil {
		t.Fatal(err)
	}
	meta := IndexMeta{Table: "t", Source: "p", Fusion: "none", Proxies: []string{"p"}}
	if err := s.SaveIndex(meta, ix, s.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	firstWrites := s.Stats().SegmentsPersisted
	if firstWrites != int64(ix.Segments()) {
		t.Fatalf("first flush wrote %d segments, want %d", firstWrites, ix.Segments())
	}
	oldRec := s.st.indexes[ixKey{"t", "p"}]

	extra := testDataset(t, 8, 1000)
	grown, err := ix.Append(extra.Scores())
	if err != nil {
		t.Fatal(err)
	}
	// The table grows first (AppendTable's order); SaveDataset leaves
	// index records and the epoch alone.
	if err := s.SaveDataset("t", d.Append(extra)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveIndex(meta, grown, s.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	newSegs := int64(grown.Segments() - ix.Segments())
	if got := s.Stats().SegmentsPersisted - firstWrites; got != newSegs {
		t.Fatalf("append flush wrote %d segment files, want only the %d new ones", got, newSegs)
	}
	newRec := s.st.indexes[ixKey{"t", "p"}]
	for i, sr := range oldRec.segs {
		if newRec.segs[i].file != sr.file {
			t.Fatalf("unchanged segment %d was rewritten (%s -> %s)", i, sr.file, newRec.segs[i].file)
		}
	}
	s.Close()

	s2 := openStore(t, Options{Dir: dir})
	assertIndexEquivalent(t, grown, mustLoad(t, s2.RecoveredIndexes()[0]))
}

func TestIndexLongerThanTableRejected(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(t, 10, 1000)
	ix := buildIndex(t, d, 400)
	s := openStore(t, Options{Dir: dir})
	// Persist a SHORTER dataset than the index covers (a crash between a
	// table shrink-rewrite and the index drop could leave this shape).
	if err := s.SaveDataset("t", testDataset(t, 11, 600)); err != nil {
		t.Fatal(err)
	}
	meta := IndexMeta{Table: "t", Source: "p", Fusion: "none", Proxies: []string{"p"}}
	if err := s.SaveIndex(meta, ix, s.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openStore(t, Options{Dir: dir})
	st := s2.Stats()
	if st.IndexesRecovered != 0 {
		t.Fatal("index covering more rows than its table was served")
	}
	if len(st.Degraded) == 0 {
		t.Fatal("over-long index dropped silently")
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open accepted an empty directory")
	}
}

func TestCheckFileName(t *testing.T) {
	for _, bad := range []string{"", ".", "..", "../evil", "a/b", `a\b`} {
		if err := checkFileName(bad); err == nil {
			t.Fatalf("checkFileName(%q) accepted", bad)
		}
	}
	if err := checkFileName("000001.seg"); err != nil {
		t.Fatal(err)
	}
}

func TestManifestRecordRoundTrip(t *testing.T) {
	ds := chunkRec{file: "000001.ds", count: 42, crc: 0xdeadbeef, size: 999}
	rtype, rec, err := decodeRecord(encodeDataset("t", ds))
	if dr, ok := rec.(datasetRec); err != nil || rtype != recDataset || !ok || dr.name != "t" ||
		len(dr.chunks) != 1 || dr.chunks[0] != ds {
		t.Fatalf("dataset round trip: %v %v %v", rtype, rec, err)
	}
	ir := indexRec{
		table: "t", source: "fuse(mean,a,b)", fusion: "mean", calibOracle: "o",
		proxies: []string{"a", "b"}, n: 7, cols: []chunkRec{{file: "000002.col", count: 7, crc: 1, size: 88}},
		segs: []segRec{{file: "000003.seg", base: 0, count: 4, crc: 2, size: 104}},
	}
	rtype, rec, err = decodeRecord(encodeIndex(ir))
	if err != nil || rtype != recIndex {
		t.Fatalf("index round trip: %v %v", rtype, err)
	}
	got := rec.(indexRec)
	if got.table != ir.table || got.source != ir.source || got.fusion != ir.fusion ||
		got.calibOracle != ir.calibOracle || len(got.proxies) != 2 || got.proxies[1] != "b" ||
		got.n != ir.n || len(got.cols) != 1 || got.cols[0] != ir.cols[0] || len(got.segs) != 1 || got.segs[0] != ir.segs[0] {
		t.Fatalf("index record diverged: %+v", got)
	}
	rtype, rec, err = decodeRecord(encodeDropTable("t"))
	if err != nil || rtype != recDropTable || rec.(string) != "t" {
		t.Fatalf("drop-table round trip: %v %v %v", rtype, rec, err)
	}
	rtype, rec, err = decodeRecord(encodeDropIndex(ixKey{"t", "p"}))
	if err != nil || rtype != recDropIndex || rec.(ixKey) != (ixKey{"t", "p"}) {
		t.Fatalf("drop-index round trip: %v %v %v", rtype, rec, err)
	}
	if _, _, err := decodeRecord(nil); err == nil {
		t.Fatal("empty record decoded")
	}
	if _, _, err := decodeRecord([]byte{99}); err == nil {
		t.Fatal("unknown record type decoded")
	}
	if _, _, err := decodeRecord(append(encodeDropTable("t"), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDatasetCRCMatchesPersistedFile(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(t, 12, 333)
	s := openStore(t, Options{Dir: dir})
	if err := s.SaveDataset("t", d); err != nil {
		t.Fatal(err)
	}
	if got := s.st.tables["t"].chunks[0].crc; got != DatasetCRC(d) {
		t.Fatalf("manifest CRC %08x, DatasetCRC %08x", got, DatasetCRC(d))
	}
}

func TestClosedStoreRefusesWrites(t *testing.T) {
	s := openStore(t, Options{Dir: t.TempDir()})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	d := testDataset(t, 13, 10)
	if err := s.SaveDataset("t", d); err == nil {
		t.Fatal("SaveDataset on a closed store")
	}
	ix := buildIndex(t, d, 0)
	if err := s.SaveIndex(IndexMeta{Table: "t", Source: "p"}, ix, 0); err == nil {
		t.Fatal("SaveIndex on a closed store")
	}
	if err := s.DropTable("t"); err == nil {
		t.Fatal("DropTable on a closed store")
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

// TestDeletesStayInsideTheDirectory: the files a record supersedes are
// named by the manifest, and a mixture's name is checked only when a
// query first loads it. A drop that supersedes a mixture whose name
// climbs out of the directory must delete nothing outside it.
func TestDeletesStayInsideTheDirectory(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	victim := filepath.Join(root, "victim.mix")
	if err := os.WriteFile(victim, []byte("not the store's"), 0o644); err != nil {
		t.Fatal(err)
	}
	seedStore(t, dir, 1000)
	s := openStore(t, Options{Dir: dir})
	ir := s.st.indexes[ixKey{"t", "p"}]
	s.Close()
	escape := mixRec{table: "t", source: "p", n: ir.n, colCRC: ir.colCRC(), exponent: 0.5, mix: 0.1,
		file: "../victim.mix", crc: 1, size: 15}
	f, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame(encodeMixture(escape))); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openStore(t, Options{Dir: dir})
	if st := s2.Stats(); st.MixturesLive != 1 {
		t.Fatalf("the escaping mixture record did not replay: %+v", st)
	}
	if err := s2.DropIndex("t", "p"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("dropping the index deleted a file outside the store: %v", err)
	}
}
