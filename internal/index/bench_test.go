package index

import (
	"fmt"
	"testing"

	"supg/internal/benchtool"
	"supg/internal/parallel"
	"supg/internal/randx"
)

// Benchmarks for the one-time index costs the segmented layout
// attacks: full builds at varying parallelism (registration latency)
// and incremental appends versus from-scratch rebuilds. Run with:
//
//	go test ./internal/index -bench 'IndexBuild|IndexAppend' -benchmem
//
// On a multi-core machine BenchmarkIndexBuild/par=8 should beat
// par=1 by >= 2x at n = 10^6 (segments sort independently); on a
// single-core runner the variants converge, but the segmented sort is
// still O(n log S) work versus the monolithic O(n log n).
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

func BenchmarkIndexBuild(b *testing.B) {
	scores := benchScores(benchBuildN)
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix, err := NewWithOptions(scores, Options{SegmentSize: 128 << 10, Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
				if ix.Len() != benchBuildN {
					b.Fatal("bad build")
				}
			}
		})
	}
	b.Run("monolithic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix, err := NewWithOptions(scores, Options{SegmentSize: benchBuildN, Parallelism: 1})
			if err != nil {
				b.Fatal(err)
			}
			if ix.Len() != benchBuildN {
				b.Fatal("bad build")
			}
		}
	})
}

// BenchmarkPermScan prices the dense AppendAtLeast scan — the paper's
// "extract everything above tau" step at an unselective threshold,
// which walks every record — on the float column versus the 16-bit
// code vector. The quantized variant reads 2 bytes per record instead
// of 8 (reported as scan-bytes/rec, the >= 3x traffic cut BENCH_
// hotpath.json records); both emit identical ids, and neither
// allocates (dst capacity is reused).
func BenchmarkPermScan(b *testing.B) {
	scores := benchScores(benchBuildN)
	const tau = 0.25 // ~75% of a uniform column matches: the dense path
	for _, quantize := range []bool{false, true} {
		name := "float"
		if quantize {
			name = "quantized"
		}
		b.Run(name, func(b *testing.B) {
			ix, err := NewWithOptions(scores, Options{Quantize: quantize})
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]int, 0, ix.CountAtLeast(tau))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = ix.AppendAtLeast(dst[:0], tau)
				if len(dst) == 0 {
					b.Fatal("no matches")
				}
			}
			// After ResetTimer: it clears previously reported metrics.
			b.ReportMetric(float64(ix.ResidentBytes()), "resident-bytes")
			b.ReportMetric(float64(ix.ScanBytesPerRecord()), "scan-bytes/rec")
		})
	}
}

// BenchmarkAscendMerge prices the k-way merge behind KthHighest and
// threshold discovery: popping the top 4096 records from a segmented
// index through the loser-tree Ascend versus the historical
// container/heap merge it replaced (kept as the test oracle). Both
// emit the identical stream; the tree does one comparison per level
// with the quantized code inline instead of interface-dispatched sift
// calls.
func BenchmarkAscendMerge(b *testing.B) {
	scores := benchScores(benchBuildN)
	const topK = 4096
	for _, quantize := range []bool{false, true} {
		ix, err := NewWithOptions(scores, Options{SegmentSize: 128 << 10, Quantize: quantize})
		if err != nil {
			b.Fatal(err)
		}
		suffix := ""
		if quantize {
			suffix = "-quantized"
		}
		for _, v := range []struct {
			name   string
			ascend func(func(int, float64) bool)
		}{
			{"loser-tree", ix.Ascend},
			{"heap", ix.ascendHeap},
		} {
			ascend := v.ascend
			b.Run(v.name+suffix, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					popped := 0
					ascend(func(id int, score float64) bool {
						popped++
						return popped < topK
					})
					if popped != topK {
						b.Fatalf("popped %d", popped)
					}
				}
			})
		}
	}
}

// BenchmarkParallelCount is the witness for CountAtLeast staying
// sequential under a query pool: at n=1e6 a fan-out of the per-segment
// binary searches measured 5.2µs and 11 allocs/op at par=8 against
// 1.5µs and 0 allocs at par=1, so it was removed. par=8 must now match
// par=1 in both allocs/op and speed.
func BenchmarkParallelCount(b *testing.B) {
	scores := benchScores(benchBuildN)
	const tau = 0.25
	for _, par := range []int{1, 8} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			// 16k-record segments: 62 segments, past the 32-segment gate
			// the removed fan-out used.
			ix, err := NewWithOptions(scores, Options{
				SegmentSize: 16 << 10,
				QueryPool:   parallel.NewPool(par),
			})
			if err != nil {
				b.Fatal(err)
			}
			want := ix.CountAtLeast(tau)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := ix.CountAtLeast(tau); got != want {
					b.Fatalf("count %d, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkIndexBuildQuantized prices quantized index construction
// (the extra cost is one linear pass building both code vectors).
func BenchmarkIndexBuildQuantized(b *testing.B) {
	scores := benchScores(benchBuildN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := NewWithOptions(scores, Options{SegmentSize: 128 << 10, Parallelism: 1, Quantize: true})
		if err != nil {
			b.Fatal(err)
		}
		if ix.Len() != benchBuildN {
			b.Fatal("bad build")
		}
	}
}

// BenchmarkIndexAppend prices appending one 256k-record segment to an
// n=10^6 table against re-registering (rebuilding) the combined
// column — the acceptance target is append >= 4x cheaper.
func BenchmarkIndexAppend(b *testing.B) {
	const extraN = 256 << 10
	scores := benchScores(benchBuildN + extraN)
	base, err := NewWithOptions(scores[:benchBuildN], Options{SegmentSize: DefaultSegmentSize})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix, err := base.Append(scores[benchBuildN:])
			if err != nil {
				b.Fatal(err)
			}
			if ix.Len() != len(scores) {
				b.Fatal("bad append")
			}
		}
	})
	b.Run("full-rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix, err := NewWithOptions(scores, Options{SegmentSize: DefaultSegmentSize})
			if err != nil {
				b.Fatal(err)
			}
			if ix.Len() != len(scores) {
				b.Fatal("bad rebuild")
			}
		}
	})
}
