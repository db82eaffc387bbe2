package storage

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"supg/internal/index"
	"supg/internal/randx"
)

var (
	keyIS  = index.MixtureKey{Exponent: 0.5, Mix: 0.1}
	keyAlt = index.MixtureKey{Exponent: 1, Mix: 0.2}
)

// seedMixtures persists a table, its index, and the index's two cached
// mixtures into dir, and returns the in-memory index for comparison.
func seedMixtures(t *testing.T, dir string) *index.ScoreIndex {
	t.Helper()
	d := testDataset(t, 21, 4000)
	ix := buildIndex(t, d, 900)
	ix.Mixture(keyIS.Exponent, keyIS.Mix)
	ix.Mixture(keyAlt.Exponent, keyAlt.Mix)
	s := openStore(t, Options{Dir: dir})
	if err := s.SaveDataset("t", d); err != nil {
		t.Fatal(err)
	}
	meta := IndexMeta{Table: "t", Source: "p", Fusion: "none", Proxies: []string{"p"}}
	if err := s.SaveIndex(meta, ix, s.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	if n, err := s.SaveMixtures("t", "p", ix); err != nil || n != 2 {
		t.Fatalf("checkpoint wrote %d mixtures (%v), want 2", n, err)
	}
	if n, err := s.SaveMixtures("t", "p", ix); err != nil || n != 0 {
		t.Fatalf("second checkpoint rewrote %d mixtures (%v)", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return ix
}

// assertMixtureEquivalent checks bit-identical weights and draws.
func assertMixtureEquivalent(t *testing.T, want, got *index.ScoreIndex, k index.MixtureKey) {
	t.Helper()
	ww, wa := want.Mixture(k.Exponent, k.Mix)
	gw, ga := got.Mixture(k.Exponent, k.Mix)
	if len(ww) != len(gw) {
		t.Fatalf("%+v: %d weights, want %d", k, len(gw), len(ww))
	}
	for i := range ww {
		if math.Float64bits(ww[i]) != math.Float64bits(gw[i]) {
			t.Fatalf("%+v: weight %d is %v, want %v", k, i, gw[i], ww[i])
		}
	}
	r1, r2 := randx.New(4), randx.New(4)
	for i := 0; i < 4000; i++ {
		if x, y := wa.Draw(r1), ga.Draw(r2); x != y {
			t.Fatalf("%+v: draw %d is %d, want %d", k, i, y, x)
		}
	}
}

func mixFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.mix"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMixtureRoundTripAdoptsLazily(t *testing.T) {
	for _, noMmap := range []bool{false, true} {
		dir := t.TempDir()
		want := seedMixtures(t, dir)
		if m := mixFiles(t, dir); len(m) != 2 {
			t.Fatalf("%d .mix files on disk, want 2", len(m))
		}
		s := openStore(t, Options{Dir: dir, NoMmap: noMmap})
		st := s.Stats()
		if st.MixturesRecovered != 2 || st.MixturesLive != 2 {
			t.Fatalf("noMmap=%v: recovered %d / live %d mixtures, want 2/2", noMmap, st.MixturesRecovered, st.MixturesLive)
		}
		got := s.RecoveredIndexes()[0].Index
		if got.CachedMixtures() != 0 {
			t.Fatal("recovery adopted a mixture before any query asked")
		}
		mappedBefore := st.MappedBytes
		builds := index.MixtureBuildsTotal()
		assertMixtureEquivalent(t, want, got, keyIS)
		if d := index.MixtureBuildsTotal() - builds; d != 0 {
			t.Fatalf("noMmap=%v: first use rebuilt the stored mixture (%d builds)", noMmap, d)
		}
		grew := s.Stats().MappedBytes - mappedBefore
		if noMmap && grew != 0 || !noMmap && mmapSupported && grew != s.st.mixtures[mixKeyOf("t", "p", keyIS)].size {
			t.Fatalf("noMmap=%v: mapped bytes grew by %d on first use", noMmap, grew)
		}
		// The checkpoint of an index that adopted its mixtures writes
		// nothing: both keys are already on disk for this column.
		if n, err := s.SaveMixtures("t", "p", got); err != nil || n != 0 {
			t.Fatalf("re-checkpoint of a recovered index wrote %d (%v)", n, err)
		}
	}
}

func mixKeyOf(table, source string, k index.MixtureKey) mixKey {
	return mixRec{table: table, source: source, exponent: k.Exponent, mix: k.Mix}.key()
}

// TestCorruptMixtureFallsBackToRebuild: a bit-flipped or truncated .mix
// file is caught on first use; the index is still served, the query
// gets the rebuilt (identical) mixture, and the record is durably
// tombstoned so the next boot does not try again.
func TestCorruptMixtureFallsBackToRebuild(t *testing.T) {
	damage := map[string]func(path string){
		"bit flip": func(path string) {
			b, _ := os.ReadFile(path)
			b[len(b)/2] ^= 0x10
			os.WriteFile(path, b, 0o644)
		},
		"truncated": func(path string) {
			b, _ := os.ReadFile(path)
			os.WriteFile(path, b[:len(b)-9], 0o644)
		},
		"missing": func(path string) { os.Remove(path) },
	}
	for name, hurt := range damage {
		dir := t.TempDir()
		want := seedMixtures(t, dir)
		probe := openStore(t, Options{Dir: dir})
		victim := filepath.Join(dir, probe.st.mixtures[mixKeyOf("t", "p", keyIS)].file)
		probe.Close()
		hurt(victim)

		s := openStore(t, Options{Dir: dir})
		if st := s.Stats(); st.IndexesRecovered != 1 || st.MixturesRecovered != 2 {
			t.Fatalf("%s: Open judged the mixture early: %+v", name, st)
		}
		got := s.RecoveredIndexes()[0].Index
		builds := index.MixtureBuildsTotal()
		assertMixtureEquivalent(t, want, got, keyIS)
		if d := index.MixtureBuildsTotal() - builds; d != 1 {
			t.Fatalf("%s: %d builds, want 1 rebuild", name, d)
		}
		st := s.Stats()
		if st.MixturesLive != 1 || len(st.Degraded) != 1 || !strings.Contains(st.Degraded[0], "mixture t/p") {
			t.Fatalf("%s: %d live mixtures, degraded %q", name, st.MixturesLive, st.Degraded)
		}
		if _, err := os.Stat(victim); !os.IsNotExist(err) {
			t.Fatalf("%s: rejected mixture file survived", name)
		}
		// The untouched mixture is still adopted.
		builds = index.MixtureBuildsTotal()
		assertMixtureEquivalent(t, want, got, keyAlt)
		if index.MixtureBuildsTotal() != builds {
			t.Fatalf("%s: healthy mixture rebuilt", name)
		}
		s.Close()
		s2 := openStore(t, Options{Dir: dir})
		if st := s2.Stats(); st.MixturesRecovered != 1 {
			t.Fatalf("%s: tombstone not durable: %d mixtures recovered", name, st.MixturesRecovered)
		}
	}
}

// TestMixtureOutOfBoundsFallsBack commits a structurally valid,
// correctly checksummed file whose alias table points outside the
// column: the bounds check rejects it and the index rebuilds.
func TestMixtureOutOfBoundsFallsBack(t *testing.T) {
	dir := t.TempDir()
	want := seedMixtures(t, dir)
	s := openStore(t, Options{Dir: dir})
	k := mixKeyOf("t", "p", keyIS)
	rec := s.st.mixtures[k]
	w, a := want.Mixture(keyIS.Exponent, keyIS.Mix)
	prob, alias := a.Tables()
	bad := append([]int32(nil), alias...)
	bad[17] = int32(len(bad))
	path := filepath.Join(dir, "999999.mix")
	crc, size, err := writeMixtureFile(path, index.MixtureTables{Key: keyIS, Weights: w, Prob: prob, Alias: bad})
	if err != nil {
		t.Fatal(err)
	}
	rec.file, rec.crc, rec.size = "999999.mix", crc, size
	if err := s.man.appendRecord(encodeMixture(rec)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openStore(t, Options{Dir: dir})
	builds := index.MixtureBuildsTotal()
	assertMixtureEquivalent(t, want, s2.RecoveredIndexes()[0].Index, keyIS)
	if index.MixtureBuildsTotal()-builds != 1 {
		t.Fatal("out-of-bounds alias table was adopted")
	}
	if st := s2.Stats(); len(st.Degraded) != 1 || !strings.Contains(st.Degraded[0], "alias") {
		t.Fatalf("degraded %q, want an alias bounds note", st.Degraded)
	}
}

// TestIndexFlushDropsStaleMixtures: an append-grown index flushed over
// the checkpointed one makes its mixtures dead — the flush deletes
// their files and a reopen recovers none.
func TestIndexFlushDropsStaleMixtures(t *testing.T) {
	dir := t.TempDir()
	seedMixtures(t, dir)
	s := openStore(t, Options{Dir: dir})
	rec := s.RecoveredIndexes()[0]
	extra := testDataset(t, 22, 300)
	grown, err := rec.Index.Append(extra.Scores())
	if err != nil {
		t.Fatal(err)
	}
	// The table grows first (AppendTable's order), then the index flush.
	if err := s.SaveDataset("t", s.RecoveredTables()[0].Dataset.Append(extra)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MixturesLive != 2 {
		t.Fatalf("a dataset append dropped mixtures before the index flush: %d live", st.MixturesLive)
	}
	if err := s.SaveIndex(rec.IndexMeta, grown, s.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MixturesLive != 0 {
		t.Fatalf("%d mixtures outlived the column they describe", st.MixturesLive)
	}
	if m := mixFiles(t, dir); len(m) != 0 {
		t.Fatalf("stale mixture files left behind: %v", m)
	}
	// The old index no longer owns the record; only the grown one can
	// checkpoint.
	if n, _ := s.SaveMixtures("t", "p", rec.Index); n != 0 {
		t.Fatal("superseded index checkpointed its mixtures")
	}
	grown.Mixture(keyIS.Exponent, keyIS.Mix)
	if n, err := s.SaveMixtures("t", "p", grown); err != nil || n != 1 {
		t.Fatalf("grown index checkpoint wrote %d (%v), want 1", n, err)
	}
	s.Close()
	s2 := openStore(t, Options{Dir: dir})
	if st := s2.Stats(); st.MixturesRecovered != 1 {
		t.Fatalf("recovered %d mixtures, want the grown index's 1", st.MixturesRecovered)
	}
}

func TestDropsCascadeToMixtures(t *testing.T) {
	drops := map[string]func(s *Store) error{
		"DropIndex": func(s *Store) error { return s.DropIndex("t", "p") },
		"DropTable": func(s *Store) error { return s.DropTable("t") },
	}
	for name, drop := range drops {
		dir := t.TempDir()
		seedMixtures(t, dir)
		s := openStore(t, Options{Dir: dir})
		ix := s.RecoveredIndexes()[0].Index
		if err := drop(s); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.MixturesLive != 0 {
			t.Fatalf("%s left %d live mixtures", name, st.MixturesLive)
		}
		if m := mixFiles(t, dir); len(m) != 0 {
			t.Fatalf("%s left mixture files: %v", name, m)
		}
		ix.Mixture(keyIS.Exponent, keyIS.Mix)
		if n, _ := s.SaveMixtures("t", "p", ix); n != 0 {
			t.Fatalf("%s: a dropped index checkpointed %d mixtures", name, n)
		}
		s.Close()
		if st := openStore(t, Options{Dir: dir}).Stats(); st.MixturesRecovered != 0 {
			t.Fatalf("%s: dropped mixtures resurrected", name)
		}
	}
}

// TestSaveMixturesConcurrent: the engine checkpoints every index from
// its own goroutine; concurrent SaveMixtures calls must commit each
// mixture exactly once. Run under -race.
func TestSaveMixturesConcurrent(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(t, 24, 3000)
	s := openStore(t, Options{Dir: dir})
	if err := s.SaveDataset("t", d); err != nil {
		t.Fatal(err)
	}
	sources := []string{"a", "b", "c", "d"}
	ixs := make([]*index.ScoreIndex, len(sources))
	for i, src := range sources {
		ixs[i] = buildIndex(t, d, 700)
		ixs[i].Mixture(keyIS.Exponent, keyIS.Mix)
		meta := IndexMeta{Table: "t", Source: src, Fusion: "none", Proxies: []string{src}}
		if err := s.SaveIndex(meta, ixs[i], s.Epoch("t")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	written := make([]int, 2*len(sources))
	for g := range written {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(sources)
			written[g], _ = s.SaveMixtures("t", sources[i], ixs[i])
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range written {
		total += n
	}
	if st := s.Stats(); st.MixturesLive != len(sources) || total < len(sources) {
		t.Fatalf("%d live mixtures after %d writes, want %d", st.MixturesLive, total, len(sources))
	}
	s.Close()
	if m := mixFiles(t, dir); len(m) != len(sources) {
		t.Fatalf("%d mixture files on disk, want %d", len(m), len(sources))
	}
	s2 := openStore(t, Options{Dir: dir})
	builds := index.MixtureBuildsTotal()
	for _, ri := range s2.RecoveredIndexes() {
		assertMixtureEquivalent(t, ixs[0], ri.Index, keyIS)
	}
	if index.MixtureBuildsTotal() != builds || s2.Stats().MixturesRecovered != len(sources) {
		t.Fatal("concurrently checkpointed mixtures were not all adopted")
	}
}

func TestSaveMixturesNeedsTheFlushedIndex(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(t, 23, 1000)
	s := openStore(t, Options{Dir: dir})
	ix := buildIndex(t, d, 0)
	ix.Mixture(keyIS.Exponent, keyIS.Mix)
	if n, err := s.SaveMixtures("t", "p", ix); err != nil || n != 0 {
		t.Fatalf("checkpoint without an index record wrote %d (%v)", n, err)
	}
	meta := IndexMeta{Table: "t", Source: "p", Fusion: "none", Proxies: []string{"p"}}
	if err := s.SaveIndex(meta, ix, s.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	twin := buildIndex(t, d, 0) // same column, different index value
	twin.Mixture(keyIS.Exponent, keyIS.Mix)
	if n, _ := s.SaveMixtures("t", "p", twin); n != 0 {
		t.Fatal("an index the record was not flushed from checkpointed")
	}
	s.Close()
	if _, err := s.SaveMixtures("t", "p", ix); err == nil {
		t.Fatal("SaveMixtures on a closed store")
	}
}

func TestCompactionKeepsMixtures(t *testing.T) {
	dir := t.TempDir()
	want := seedMixtures(t, dir)
	s := openStore(t, Options{Dir: dir})
	d := s.RecoveredTables()[0].Dataset
	for i := 0; i < compactMinFrames+4; i++ {
		if err := s.SaveDataset("other", d); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Compactions == 0 || st.MixturesLive != 2 {
		t.Fatalf("compaction: %+v", st)
	}
	s.Close()
	s2 := openStore(t, Options{Dir: dir})
	if st := s2.Stats(); st.MixturesRecovered != 2 {
		t.Fatalf("compacted manifest kept %d mixtures, want 2", st.MixturesRecovered)
	}
	builds := index.MixtureBuildsTotal()
	for _, ri := range s2.RecoveredIndexes() {
		assertMixtureEquivalent(t, want, ri.Index, keyAlt)
	}
	if index.MixtureBuildsTotal() != builds {
		t.Fatal("mixture rebuilt after compaction")
	}
}

func TestMixtureRecordRoundTrip(t *testing.T) {
	mr := mixRec{table: "t", source: "fuse(mean,a,b)", n: 9, colCRC: 0xfeedface,
		exponent: 0.5, mix: 0.1, file: "000009.mix", crc: 3, size: 4242}
	rtype, rec, err := decodeRecord(encodeMixture(mr))
	if err != nil || rtype != recMixture || rec.(mixRec) != mr {
		t.Fatalf("mixture round trip: %v %+v %v", rtype, rec, err)
	}
	rtype, rec, err = decodeRecord(encodeDropMixture(mr.key()))
	if err != nil || rtype != recDropMixture || rec.(mixKey) != mr.key() {
		t.Fatalf("drop-mixture round trip: %v %+v %v", rtype, rec, err)
	}
	if _, _, err := decodeRecord(append(encodeMixture(mr), 1)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestMixtureRecordBinding: replay keeps a mixture only while the live
// index record matches its (rows, column CRC) binding.
func TestMixtureRecordBinding(t *testing.T) {
	ir := indexRec{table: "t", source: "p", fusion: "none", proxies: []string{"p"}, n: 10,
		cols: []chunkRec{{file: "000002.col", count: 10, crc: 8, size: 112}},
		segs: []segRec{{file: "000003.seg", count: 10, crc: 9, size: 200}}}
	mr := mixRec{table: "t", source: "p", n: 10, colCRC: 8, exponent: 0.5, mix: 0.1, file: "000004.mix", crc: 1, size: 2}
	orphan := mr
	orphan.table = "u"
	stale := mr
	stale.colCRC, stale.exponent = 7, 1
	grown := ir
	grown.n, grown.cols = 11, []chunkRec{{file: "000005.col", count: 11, crc: 5, size: 120}}
	cases := []struct {
		name string
		log  [][]byte
		live int
	}{
		{"bound", [][]byte{encodeIndex(ir), encodeMixture(mr)}, 1},
		{"before its index", [][]byte{encodeMixture(mr), encodeIndex(ir)}, 0},
		{"no index", [][]byte{encodeIndex(ir), encodeMixture(orphan)}, 0},
		{"other column", [][]byte{encodeIndex(ir), encodeMixture(stale)}, 0},
		{"index grew", [][]byte{encodeIndex(ir), encodeMixture(mr), encodeIndex(grown)}, 0},
		{"index reflushed unchanged", [][]byte{encodeIndex(ir), encodeMixture(mr), encodeIndex(ir)}, 1},
		{"dropped", [][]byte{encodeIndex(ir), encodeMixture(mr), encodeDropMixture(mr.key())}, 0},
		{"index dropped", [][]byte{encodeIndex(ir), encodeMixture(mr), encodeDropIndex(ixKey{"t", "p"})}, 0},
		{"table dropped", [][]byte{encodeIndex(ir), encodeMixture(mr), encodeDropTable("t")}, 0},
	}
	for _, c := range cases {
		var log []byte
		for _, p := range c.log {
			log = append(log, frame(p)...)
		}
		st, off := replayManifest(log)
		if off != int64(len(log)) || len(st.mixtures) != c.live {
			t.Fatalf("%s: %d live mixtures (replayed to %d of %d), want %d", c.name, len(st.mixtures), off, len(log), c.live)
		}
	}
}

// TestParentManifestReplaysUnchanged opens a persistence directory
// written before mixture records existed (testdata/manifest-v1: one
// table, a float and a legacy quantized index, and a dropped third
// index). It must recover exactly that catalog, answer like a rebuild,
// and leave the manifest bytes and the file set untouched through Open
// and Close.
func TestParentManifestReplaysUnchanged(t *testing.T) {
	src := filepath.Join("testdata", "manifest-v1")
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	s := openStore(t, Options{Dir: dir})
	st := s.Stats()
	if st.TablesRecovered != 1 || st.IndexesRecovered != 2 || st.SegmentsRecovered != 6 ||
		st.MixturesRecovered != 0 || st.ManifestRecords != 5 || len(st.Degraded) != 0 {
		t.Fatalf("recovered %+v", st)
	}
	d := s.RecoveredTables()[0].Dataset
	for _, ri := range s.RecoveredIndexes() {
		want, err := index.NewWithOptions(d.Scores(), index.Options{SegmentSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		assertIndexEquivalent(t, want, ri.Index)
		builds := index.MixtureBuildsTotal()
		assertMixtureEquivalent(t, want, ri.Index, keyIS)
		if index.MixtureBuildsTotal()-builds != 2 {
			t.Fatal("an index without stored mixtures did not build its own")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("manifest changed: %d bytes before, %d after", len(before), len(after))
	}
	if left, _ := os.ReadDir(dir); len(left) != len(entries) {
		t.Fatalf("%d files after Open, want the %d written by the old binary", len(left), len(entries))
	}
}
