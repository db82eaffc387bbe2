package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
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

// benchPlan plans the benchmark query: a RECALL or PRECISION target of
// 90% at the benchmark budget.
func benchPlan(b *testing.B, target string) *query.Plan {
	b.Helper()
	q, err := query.Parse(fmt.Sprintf(`
		SELECT * FROM video
		WHERE video_oracle(frame) = true
		ORACLE LIMIT %d
		USING video_proxy(frame)
		%s TARGET 90%%
		WITH PROBABILITY 95%%`, benchBudget, target))
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
	e := openEngine(b, 42, Options{})
	e.RegisterDatasetDefaults("video", d)
	plan := benchPlan(b, "RECALL")
	// Warm the index so the steady state is measured.
	if _, err := executePlan(e, plan); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := executePlan(e, plan)
		if err != nil {
			b.Fatal(err)
		}
		if res.IndexBuilt {
			b.Fatal("steady state rebuilt the index")
		}
	}
}

// BenchmarkSelectHotPathOmitIndices is BenchmarkSelectHotPath's query
// as the HTTP server runs it, with ExecOptions.OmitIndices: the answer
// stays (tau, sampled positives), so the timed region allocates no id
// list, where BenchmarkSelectHotPath lists the whole returned set.
func BenchmarkSelectHotPathOmitIndices(b *testing.B) {
	d := benchDataset(b)
	e := openEngine(b, 42, Options{})
	e.RegisterDatasetDefaults("video", d)
	plan := benchPlan(b, "RECALL")
	opts := ExecOptions{OmitIndices: true}
	if _, err := e.ExecutePlanContext(context.Background(), plan, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.ExecutePlanContext(context.Background(), plan, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.IndexBuilt || res.Indices != nil {
			b.Fatal("steady state rebuilt the index or listed the answer")
		}
	}
}

// BenchmarkSelectPrecisionWarm measures repeated default-config
// precision-target queries against one registered table with the index,
// the mixture and the stage-2 table over D′ all warm: the second query
// on a cut finds its table in the index's memo, so the timed region
// allocates no O(|D′|) table.
func BenchmarkSelectPrecisionWarm(b *testing.B) {
	d := benchDataset(b)
	e := openEngine(b, 42, Options{})
	e.RegisterDatasetDefaults("video", d)
	plan := benchPlan(b, "PRECISION")
	if _, err := executePlan(e, plan); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := executePlan(e, plan)
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
		e := openEngine(b, 42, Options{})
		e.RegisterDatasetDefaults("video", d)
		plan := benchPlan(b, "RECALL")
		// Warm the index and the mixture/alias cache so the timed
		// region is pure select: sample, estimate, scan, assemble.
		if _, err := executePlan(e, plan); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := executePlan(e, plan)
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
	plan := benchPlan(b, "RECALL")
	proxyFn := func(i int) float64 { return d.Score(i) }
	rng := randx.New(42)
	orc := oracle.Func(func(i int) (bool, error) { return d.TrueLabel(i), nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores := scoreRange(proxyFn, 0, d.Len(), runtime.GOMAXPROCS(0))
		for j, s := range scores {
			if s < 0 || s > 1 || s != s {
				b.Fatalf("score %g at %d", s, j)
			}
		}
		r := rng.Stream(hashString(plan.SourceText))
		budgeted := oracle.NewBudgeted(orc, plan.Spec.Budget)
		tr, err := core.SelectBudgeted(r, core.NewRawSource(scores), budgeted, plan.Spec, plan.Config)
		if err != nil {
			b.Fatal(err)
		}
		// Historical assemble: an include-map over up to the whole
		// table followed by a full sort of the extracted keys (on top
		// of SelectBudgeted's own merge assembly).
		include := make(map[int]struct{})
		for _, j := range budgeted.AppendLabeledPositives(nil) {
			include[j] = struct{}{}
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
	plan := benchPlan(b, "RECALL")
	proxyFn := func(i int) float64 { return d.Score(i) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := openEngine(b, 42, Options{})
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
