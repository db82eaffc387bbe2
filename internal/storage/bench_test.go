package storage

import (
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
// "recover" is the durable-storage path: Open replays the manifest,
// CRC-verifies every file, mmaps the column and segment permutations,
// and hands back a ready index after an O(n) ascent check — zero proxy
// UDF calls, zero sorts. "rebuild" is the only alternative without the
// storage tier: re-invoke the proxy for all n records and re-sort every
// segment. The proxy here is a trivial slice lookup, so the rebuild
// number is its floor — any real model inference widens the gap by
// orders of magnitude, which is exactly the cost the paper's setting
// makes unaffordable to pay twice.
//
// "recover" stops once the index is mapped, which hides the IS
// sampling mixture the first query then needs. The first-answer cases
// recover and answer one IS precision query: "stored-mixture" boots a
// directory whose clean shutdown checkpointed the mixture, so the query
// verifies and adopts it; "built-mixture" boots the same directory
// without it, so the query builds the weights and alias table.
const benchBootN = 1_000_000

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
			if _, err := core.SelectFrom(randx.New(1), ix, orc, spec, cfg); err != nil {
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

	b.Run("recover", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := Open(Options{Dir: dir, Index: ixOpts})
			if err != nil {
				b.Fatal(err)
			}
			rec := s.RecoveredIndexes()
			if len(rec) != 1 || rec[0].Index.Len() != benchBootN {
				b.Fatalf("recovery incomplete: %d indexes", len(rec))
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
				if _, err := core.SelectFrom(randx.New(1), rec[0].Index, orc, spec, cfg); err != nil {
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
