package index

import (
	"fmt"
	"testing"

	"supg/internal/benchtool"
	"supg/internal/dist"
	"supg/internal/randx"
)

// Benchmarks for the one-time index costs the segmented layout
// attacks: full builds at varying parallelism (registration latency)
// and incremental appends versus from-scratch rebuilds. Run with:
//
//	go test ./internal/index -bench 'IndexBuild|IndexAppend' -benchmem
//
// Every segment is radix-sorted in at most six linear passes, so a
// build is O(n) work at any segmentation and parallelism divides its
// wall time. On a 2-core Xeon VM at n = 10^6, uniform scores build in
// ~75 ms at par=1 and ~45 ms at par=2 (the comparator sort it replaced
// took ~275 and ~145 ms), and the monolithic layout in ~110 ms.
//
// benchBuildN scales down via SUPG_BENCH_N for the CI bench smoke.
var benchBuildN = benchtool.N(1_000_000)

func benchScores(n int) []float64 {
	r := randx.New(1701)
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = r.Float64()
	}
	return scores
}

// benchBetaScores draws Beta(0.01, 2) scores: most mass sits near 0,
// with exponents spread over hundreds of binades, so the radix sort's
// high digits vary where uniform scores' are nearly constant.
func benchBetaScores(n int) []float64 {
	r := randx.New(1702)
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = dist.SampleBeta(r, 0.01, 2)
	}
	return scores
}

// BenchmarkIndexBuild prices a full build of benchBuildN records in
// 128Ki-record segments at parallelism 1/2/4/8 and as one monolithic
// segment, over uniform and Beta(0.01, 2) columns, whose bit patterns
// exercise the radix digits differently.
func BenchmarkIndexBuild(b *testing.B) {
	for _, col := range []struct {
		name   string
		scores []float64
	}{
		{"uniform", benchScores(benchBuildN)},
		{"beta", benchBetaScores(benchBuildN)},
	} {
		scores := col.scores
		for _, par := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/par=%d", col.name, par), func(b *testing.B) {
				b.ReportAllocs()
				benchBuild(b, scores, Options{SegmentSize: 128 << 10, Parallelism: par})
			})
		}
		b.Run(col.name+"/monolithic", func(b *testing.B) {
			b.ReportAllocs()
			benchBuild(b, scores, Options{SegmentSize: len(scores), Parallelism: 1})
		})
	}
}

func benchBuild(b *testing.B, scores []float64, opts Options) {
	for i := 0; i < b.N; i++ {
		ix, err := NewWithOptions(scores, opts)
		if err != nil {
			b.Fatal(err)
		}
		if ix.Len() != len(scores) {
			b.Fatal("bad build")
		}
	}
}

// BenchmarkGather prices AppendAtLeast — the paper's "return every
// record above tau" step, which materializes each answer and each
// two-stage subset — at 1%, 33%, 75% and 99% of n on one goroutine.
// The 99% case guards the dense end, where marking the smaller side of
// the cut keeps the bit-set pass short and the word walk emits nearly
// every id. dst capacity is reused and pooled bitmaps go back clean, so
// no case allocates.
func BenchmarkGather(b *testing.B) {
	scores := benchScores(benchBuildN)
	ix, err := NewWithOptions(scores, Options{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, pct := range []int{1, 33, 75, 99} {
		tau := 1 - float64(pct)/100
		b.Run(fmt.Sprintf("pct=%d", pct), func(b *testing.B) {
			dst := make([]int, 0, ix.CountAtLeast(tau))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = ix.AppendAtLeast(dst[:0], tau)
				if len(dst) == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}

// BenchmarkIndexAppend prices appending one 256k-record segment to an
// n=10^6 table against re-registering (rebuilding) the combined
// column — the acceptance target is append >= 4x cheaper. chained
// prices an ingest stream: 8192-record appends, each onto the previous
// result, so most grow the column in place and a few copy it into a
// larger array. Every 64 appends the chain restarts from the n=10^6
// base, which keeps the share of copying appends, and so allocs/op
// and bytes/op, steady.
func BenchmarkIndexAppend(b *testing.B) {
	const extraN = 256 << 10
	const chainBatch, chainLen = 8192, 64
	scores := benchScores(benchBuildN + max(extraN, chainBatch*chainLen))
	base, err := NewWithOptions(scores[:benchBuildN], Options{SegmentSize: DefaultSegmentSize})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix, err := base.Append(scores[benchBuildN : benchBuildN+extraN])
			if err != nil {
				b.Fatal(err)
			}
			if ix.Len() != benchBuildN+extraN {
				b.Fatal("bad append")
			}
		}
	})
	b.Run("chained", func(b *testing.B) {
		b.ReportAllocs()
		ix := base
		for i := 0; i < b.N; i++ {
			k := i % chainLen
			if k == 0 {
				ix = base
			}
			lo := benchBuildN + k*chainBatch
			next, err := ix.Append(scores[lo : lo+chainBatch])
			if err != nil {
				b.Fatal(err)
			}
			if next.Len() != lo+chainBatch {
				b.Fatal("bad append")
			}
			ix = next
		}
	})
	b.Run("full-rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix, err := NewWithOptions(scores[:benchBuildN+extraN], Options{SegmentSize: DefaultSegmentSize})
			if err != nil {
				b.Fatal(err)
			}
			if ix.Len() != benchBuildN+extraN {
				b.Fatal("bad rebuild")
			}
		}
	})
}
