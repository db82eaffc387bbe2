package storage

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"supg/internal/core"
	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/oracle"
	"supg/internal/randx"
)

// BenchmarkStorageBoot prices the two ways a server can come up with a
// warm index over an n=10^6 table. Run with:
//
//	go test ./internal/storage -bench StorageBoot -benchmem -run '^$'
//
// "recover" is the durable-storage path: Open replays the manifest and
// loads the dataset, and the index's first use (RecoveredIndex.Load)
// CRC-verifies its files, mmaps the column and segment permutations,
// and hands back a ready index after an O(n) ascent check — zero proxy
// UDF calls, zero sorts. "rebuild" is the only alternative without the
// storage tier: re-invoke the proxy for all n records and re-sort every
// segment. The proxy here is a trivial slice lookup, so the rebuild
// number is its floor — any real model inference widens the gap by
// orders of magnitude, which is exactly the cost the paper's setting
// makes unaffordable to pay twice.
//
// "open" times Open alone: the boot of a server whose indexes wait,
// unread, for the first query that needs them.
//
// "recover" stops once the index is mapped, which hides the IS
// sampling mixture the first query then needs. The first-answer cases
// recover and answer one IS precision query: "stored-mixture" boots a
// directory whose clean shutdown checkpointed the mixture, so the query
// verifies and adopts it; "built-mixture" boots the same directory
// without it, so the query builds the weights and alias table.
//
// "recover/chunked" boots the same n=10^6 records stored as a base plus
// 64 appended chunks of benchAppendN records, the shape a table grown
// by appends has: its dataset and column are copied into heap memory
// (and the table's identity hashed) once, at this boot, instead of
// being rewritten by every append.
const benchBootN = 1_000_000

// benchAppendN is the append batch of the chunked benchmarks, the size
// e2ebench's ingest-durable workload appends per op.
const benchAppendN = 8192

// benchChunks is how many appended chunks recover/chunked boots.
const benchChunks = 64

func BenchmarkStorageBoot(b *testing.B) {
	d := dataset.Beta(randx.New(99), benchBootN, 0.01, 2)
	ixOpts := index.Options{SegmentSize: 128 << 10}
	spec := core.Spec{Kind: core.PrecisionTarget, Gamma: 0.9, Delta: 0.05, Budget: 1000}
	cfg := core.DefaultSUPG()
	orc := oracle.Func(func(i int) (bool, error) { return d.TrueLabel(i), nil })
	seedDir := func(withMixture bool) string {
		dir := b.TempDir()
		seed, err := Open(Options{Dir: dir, Index: ixOpts})
		if err != nil {
			b.Fatal(err)
		}
		if err := seed.SaveDataset("t", d); err != nil {
			b.Fatal(err)
		}
		ix, err := index.NewWithOptions(d.Scores(), ixOpts)
		if err != nil {
			b.Fatal(err)
		}
		meta := IndexMeta{Table: "t", Source: "p", Fusion: "none", Proxies: []string{"p"}}
		if err := seed.SaveIndex(meta, ix, seed.Epoch("t")); err != nil {
			b.Fatal(err)
		}
		if withMixture {
			if _, err := core.SelectFromContextOptions(context.Background(), randx.New(1), ix, orc, spec, cfg, core.SelectOptions{}); err != nil {
				b.Fatal(err)
			}
			if n, err := seed.SaveMixtures("t", "p", ix); err != nil || n != 1 {
				b.Fatalf("checkpointed %d mixtures: %v", n, err)
			}
		}
		if err := seed.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	dir, mixDir := seedDir(false), seedDir(true)
	chunkedDir := b.TempDir()
	if s, _, _ := seedAppended(b, chunkedDir, d, ixOpts, benchChunks); s.Close() != nil {
		b.Fatal("close the chunked seed store")
	}

	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := Open(Options{Dir: dir, Index: ixOpts})
			if err != nil {
				b.Fatal(err)
			}
			if rec := s.RecoveredIndexes(); len(rec) != 1 || rec[0].Len != benchBootN {
				b.Fatalf("staging incomplete: %d indexes", len(rec))
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("recover", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := Open(Options{Dir: dir, Index: ixOpts})
			if err != nil {
				b.Fatal(err)
			}
			rec := s.RecoveredIndexes()
			if len(rec) != 1 {
				b.Fatalf("recovery incomplete: %d indexes", len(rec))
			}
			if ix, err := rec[0].Load(); err != nil || ix.Len() != benchBootN {
				b.Fatalf("load the staged index: %v", err)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("recover/chunked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := Open(Options{Dir: chunkedDir, Index: ixOpts})
			if err != nil {
				b.Fatal(err)
			}
			rec := s.RecoveredIndexes()
			if len(rec) != 1 || len(s.st.tables["t"].chunks) != benchChunks+1 {
				b.Fatalf("recovery incomplete: %d indexes", len(rec))
			}
			if ix, err := rec[0].Load(); err != nil || ix.Len() != benchBootN {
				b.Fatalf("load the staged index: %v", err)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, c := range []struct {
		name   string
		dir    string
		builds int64
	}{
		{"first-answer/stored-mixture", mixDir, 0},
		{"first-answer/built-mixture", dir, 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				builds := index.MixtureBuildsTotal()
				s, err := Open(Options{Dir: c.dir, Index: ixOpts})
				if err != nil {
					b.Fatal(err)
				}
				rec := s.RecoveredIndexes()
				if len(rec) != 1 {
					b.Fatalf("recovery incomplete: %d indexes", len(rec))
				}
				ix, err := rec[0].Load()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.SelectFromContextOptions(context.Background(), randx.New(1), ix, orc, spec, cfg, core.SelectOptions{}); err != nil {
					b.Fatal(err)
				}
				if got := index.MixtureBuildsTotal() - builds; got != c.builds {
					b.Fatalf("%d mixture builds, want %d", got, c.builds)
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	b.Run("rebuild", func(b *testing.B) {
		proxy := func(i int) float64 { return d.Score(i) }
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scores := make([]float64, benchBootN)
			for j := range scores {
				scores[j] = proxy(j)
			}
			ix, err := index.NewWithOptions(scores, ixOpts)
			if err != nil {
				b.Fatal(err)
			}
			if ix.Len() != benchBootN {
				b.Fatal("bad rebuild")
			}
		}
	})
}

// seedAppended persists the first d.Len()-chunks*benchAppendN records
// of d with an index over them into dir, then appends the rest in
// chunks batches, flushing the grown index after each, as the engine
// does. It returns the open store and the grown index.
func seedAppended(b *testing.B, dir string, d *dataset.Dataset, ixOpts index.Options, chunks int) (*Store, *dataset.Dataset, *index.ScoreIndex) {
	b.Helper()
	s, err := Open(Options{Dir: dir, Index: ixOpts})
	if err != nil {
		b.Fatal(err)
	}
	base := d.Len() - chunks*benchAppendN
	cur := d.Slice(0, base)
	ix, err := index.NewWithOptions(cur.Scores(), ixOpts)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.SaveDataset("t", cur); err != nil {
		b.Fatal(err)
	}
	meta := IndexMeta{Table: "t", Source: "p", Fusion: "none", Proxies: []string{"p"}}
	if err := s.SaveIndex(meta, ix, s.Epoch("t")); err != nil {
		b.Fatal(err)
	}
	for k := 0; k < chunks; k++ {
		lo := cur.Len()
		cur = cur.Append(d.Slice(lo, lo+benchAppendN))
		if err := s.AppendDataset("t", cur, lo); err != nil {
			b.Fatal(err)
		}
		if ix, err = ix.Append(cur.Scores()[lo:]); err != nil {
			b.Fatal(err)
		}
		if err := s.SaveIndex(meta, ix, s.Epoch("t")); err != nil {
			b.Fatal(err)
		}
	}
	return s, cur, ix
}

// BenchmarkStorageAppend prices the write side of chunked storage: one
// benchAppendN-record append to an n=10^6 table — AppendDataset, then
// SaveIndex of the grown index, the engine's AppendTable and next-query
// flush — with the in-memory dataset and index appends untimed. It
// reports written-B/op: the bytes of every file the op created plus
// the manifest's growth, i.e. the appended dataset chunk, column chunk
// and segment and their two records, independent of the table size.
func BenchmarkStorageAppend(b *testing.B) {
	d := dataset.Beta(randx.New(99), benchBootN, 0.01, 2)
	tail := dataset.Beta(randx.New(100), benchAppendN, 0.01, 2)
	ixOpts := index.Options{SegmentSize: 128 << 10}
	dir := b.TempDir()
	s, cur, ix := seedAppended(b, dir, d, ixOpts, 0)
	defer s.Close()
	meta := IndexMeta{Table: "t", Source: "p", Fusion: "none", Proxies: []string{"p"}}
	var written int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := dirSizes(b, dir)
		lo := cur.Len()
		cur = cur.Append(tail)
		grown, err := ix.Append(tail.Scores())
		if err != nil {
			b.Fatal(err)
		}
		ix = grown
		b.StartTimer()
		if err := s.AppendDataset("t", cur, lo); err != nil {
			b.Fatal(err)
		}
		if err := s.SaveIndex(meta, ix, s.Epoch("t")); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for name, size := range dirSizes(b, dir) {
			if old, ok := before[name]; !ok {
				written += size
			} else if name == manifestName {
				written += size - old
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(written)/float64(b.N), "written-B/op")
}

// dirSizes maps each file in dir to its size.
func dirSizes(b *testing.B, dir string) map[string]int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	out := make(map[string]int64, len(entries))
	for _, e := range entries {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		out[e.Name()] = fi.Size()
	}
	return out
}
