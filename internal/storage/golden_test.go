package storage

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"supg/internal/index"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

// goldenManifest is the MANIFEST manifestOps writes, recorded before
// the manifest moved onto framelog; the on-disk format has not changed
// since.
const goldenManifest = "testdata/ops.manifest"

// manifestOps runs a fixed sequence of store operations in dir: a
// table and its index grown by two appends, a mixture checkpoint,
// re-registrations up to a compaction, a table drop, one more append
// and an index drop.
func manifestOps(t *testing.T, dir string) {
	t.Helper()
	s := openStore(t, Options{Dir: dir, Index: index.Options{SegmentSize: 700}})
	d, ix := seedChunked(t, s, 2)
	ix.Mixture(keyIS.Exponent, keyIS.Mix)
	if n, err := s.SaveMixtures("t", "p", ix); err != nil || n != 1 {
		t.Fatalf("checkpoint wrote %d mixtures (%v), want 1", n, err)
	}
	u := testDataset(t, 90, 16)
	for i := 0; s.compactions == 0; i++ {
		if i > 2*compactMinFrames {
			t.Fatal("no compaction")
		}
		if err := s.SaveDataset("u", u); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DropTable("u"); err != nil {
		t.Fatal(err)
	}
	seedChunkedMore(t, s, d, ix, 1)
	if err := s.DropIndex("t", "p"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestManifestBytesMatchGolden pins the MANIFEST format: manifestOps
// writes exactly the bytes of testdata/ops.manifest.
func TestManifestBytesMatchGolden(t *testing.T) {
	dir := t.TempDir()
	manifestOps(t, dir)
	got, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenManifest, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenManifest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("manifest bytes differ from %s:\n got %x\nwant %x", goldenManifest, got, want)
	}
}
