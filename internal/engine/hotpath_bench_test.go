package engine

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"supg/internal/benchtool"
	"supg/internal/core"
	"supg/internal/dataset"
	"supg/internal/oracle"
	"supg/internal/query"
	"supg/internal/randx"
)

// The hot-path benchmarks measure the cost of one SUPG query against an
// already-registered table at paper scale (n = 10^6, oracle budget
// 1000) — the production-server workload where many queries hit the
// same table. BenchmarkSelectHotPath runs the indexed engine path;
// BenchmarkSelectHotPathPreIndex reproduces the historical per-query
// pipeline (full proxy scan, validation, weight construction, alias
// build, map-based assembly) for comparison. Run with:
//
//	go test ./internal/engine -bench SelectHotPath -benchmem
//
// benchN scales down via SUPG_BENCH_N (the Makefile's bench smoke uses
// a reduced n so the CI trajectory gate diffs like against like).
var benchN = benchtool.N(1_000_000)

const benchBudget = 1000

func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	return dataset.Beta(randx.New(1701), benchN, 0.01, 2)
}

func benchPlan(b *testing.B) *query.Plan {
	b.Helper()
	q, err := query.Parse(fmt.Sprintf(`
		SELECT * FROM video
		WHERE video_oracle(frame) = true
		ORACLE LIMIT %d
		USING video_proxy(frame)
		RECALL TARGET 90%%
		WITH PROBABILITY 95%%`, benchBudget))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := query.BuildPlan(q, query.PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkSelectHotPath measures repeated queries against one
// registered table through the cached ScoreIndex.
func BenchmarkSelectHotPath(b *testing.B) {
	d := benchDataset(b)
	e := New(42)
	e.RegisterDatasetDefaults("video", d)
	plan := benchPlan(b)
	// Warm the index so the steady state is measured.
	if _, err := e.ExecutePlan(plan); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.ExecutePlan(plan)
		if err != nil {
			b.Fatal(err)
		}
		if res.IndexBuilt {
			b.Fatal("steady state rebuilt the index")
		}
	}
}

// BenchmarkSelectMixtureWarm measures select on a spread score column
// (Beta(2,2), where thresholds cut mid-column instead of in the pile of
// near-zero scores benchDataset's Beta(0.01,2) column has) with the
// index and the defensive-mixture cache both warm. The sub-benchmark
// keeps the name "float" it had beside a since-removed quantized one,
// so its trajectory in BENCH_hotpath.json continues.
func BenchmarkSelectMixtureWarm(b *testing.B) {
	d := dataset.Beta(randx.New(2401), benchN, 2, 2)
	b.Run("float", func(b *testing.B) {
		e := New(42)
		e.RegisterDatasetDefaults("video", d)
		plan := benchPlan(b)
		// Warm the index and the mixture/alias cache so the timed
		// region is pure select: sample, estimate, scan, assemble.
		if _, err := e.ExecutePlan(plan); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := e.ExecutePlan(plan)
			if err != nil {
				b.Fatal(err)
			}
			if res.IndexBuilt {
				b.Fatal("steady state rebuilt the index")
			}
		}
	})
}

// BenchmarkSelectHotPathPreIndex reproduces the historical per-query
// pipeline the ScoreIndex replaced: proxy scan over all n records,
// score validation, threshold estimation over the raw slice (fresh
// sort, defensive-mixture weights and alias table every query), and
// the map-plus-full-sort result assembly.
func BenchmarkSelectHotPathPreIndex(b *testing.B) {
	d := benchDataset(b)
	plan := benchPlan(b)
	proxyFn := func(i int) float64 { return d.Score(i) }
	rng := randx.New(42)
	orc := oracle.Func(func(i int) (bool, error) { return d.TrueLabel(i), nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores := scoreAll(proxyFn, d.Len())
		for j, s := range scores {
			if s < 0 || s > 1 || s != s {
				b.Fatalf("score %g at %d", s, j)
			}
		}
		r := rng.Stream(hashString(plan.SourceText))
		budgeted := oracle.NewBudgeted(orc, plan.Spec.Budget)
		tr, err := core.EstimateTau(r, scores, budgeted, plan.Spec, plan.Config)
		if err != nil {
			b.Fatal(err)
		}
		// Historical assemble: an include-map over up to the whole
		// table followed by a full sort of the extracted keys.
		include := make(map[int]struct{})
		for j, lab := range tr.Labeled {
			if lab {
				include[j] = struct{}{}
			}
		}
		if !math.IsInf(tr.Tau, 1) {
			for j, s := range scores {
				if s >= tr.Tau {
					include[j] = struct{}{}
				}
			}
		}
		out := make([]int, 0, len(include))
		for j := range include {
			out = append(out, j)
		}
		sort.Ints(out)
		if len(out) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkIndexBuild prices the one-time cost the hot path amortizes:
// the full proxy scan plus ScoreIndex construction at n = 10^6.
func BenchmarkIndexBuild(b *testing.B) {
	d := benchDataset(b)
	plan := benchPlan(b)
	proxyFn := func(i int) float64 { return d.Score(i) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(42)
		e.RegisterTable("video", d)
		e.RegisterOracle("video_oracle", func(j int) (bool, error) { return d.TrueLabel(j), nil })
		e.RegisterProxy("video_proxy", proxyFn)
		entry, built, err := e.tableIndex(plan)
		if err != nil {
			b.Fatal(err)
		}
		if !built || entry.res.ix.Len() != d.Len() {
			b.Fatal("index not built")
		}
	}
}
