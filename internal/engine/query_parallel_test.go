package engine

import (
	"sync"
	"testing"

	"supg/internal/core"
	"supg/internal/dataset"
	"supg/internal/query"
	"supg/internal/randx"
)

// This file pins engine.Options.BuildParallelism, which also bounds
// the per-query fan-outs, as an execution detail: every query result
// must be byte-identical at parallelism 1/2/8, and the fan-outs must
// be race-free under concurrent queries and AppendTable traffic.

// queryParCase pairs a parseable statement with an estimator config
// override (nil keeps the planner's SUPG default). The SQL grammar has
// no estimator clause — alternate methods are a PlanOptions concern —
// so the UNoCI/UCI variants route through BuildPlan.
type queryParCase struct {
	sql string
	cfg *core.Config
}

func queryParCases() []queryParCase {
	unoci := core.DefaultUNoCI()
	uci := core.DefaultUCI()
	rt := `SELECT * FROM t WHERE t_oracle(x) = true ORACLE LIMIT 600
	 USING t_proxy(x) RECALL TARGET 90% WITH PROBABILITY 95%`
	pt := `SELECT * FROM t WHERE t_oracle(x) = true ORACLE LIMIT 600
	 USING t_proxy(x) PRECISION TARGET 90% WITH PROBABILITY 95%`
	return []queryParCase{
		{sql: rt},
		{sql: pt},
		{sql: rt, cfg: &unoci},
		{sql: pt, cfg: &uci},
	}
}

// queryParPlans lowers every case once; the plans are read-only and
// shared across engines and goroutines.
func queryParPlans(t *testing.T) []*query.Plan {
	t.Helper()
	cases := queryParCases()
	plans := make([]*query.Plan, len(cases))
	for i, c := range cases {
		q, err := query.Parse(c.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		plans[i], err = query.BuildPlan(q, query.PlanOptions{Config: c.cfg})
		if err != nil {
			t.Fatalf("plan %q: %v", c.sql, err)
		}
	}
	return plans
}

func queryParEngine(t *testing.T, par int, d *dataset.Dataset) *Engine {
	t.Helper()
	// 512-record segments over 40000 records: 79 segments, so the
	// parallel gather threshold engages.
	e := NewWithOptions(11, Options{SegmentSize: 512, BuildParallelism: par})
	e.RegisterDatasetDefaults("t", d)
	return e
}

// TestExecuteByteIdenticalAcrossQueryParallelism runs every estimator
// family at parallelism 1, 2, and 8 and requires identical Indices,
// Tau, and OracleCalls.
func TestExecuteByteIdenticalAcrossQueryParallelism(t *testing.T) {
	d := dataset.Beta(randx.New(3), 40000, 0.01, 2)
	plans := queryParPlans(t)
	ref := queryParEngine(t, 1, d)
	for ci, plan := range plans {
		want, err := ref.ExecutePlan(plan)
		if err != nil {
			t.Fatalf("case %d sequential: %v", ci, err)
		}
		for _, par := range []int{2, 8} {
			got, err := queryParEngine(t, par, d).ExecutePlan(plan)
			if err != nil {
				t.Fatalf("case %d par=%d: %v", ci, par, err)
			}
			if got.Tau != want.Tau || got.OracleCalls != want.OracleCalls {
				t.Fatalf("case %d par=%d: tau/calls %v/%d, sequential %v/%d",
					ci, par, got.Tau, got.OracleCalls, want.Tau, want.OracleCalls)
			}
			if len(got.Indices) != len(want.Indices) {
				t.Fatalf("case %d par=%d: %d records, sequential %d",
					ci, par, len(got.Indices), len(want.Indices))
			}
			for i := range want.Indices {
				if got.Indices[i] != want.Indices[i] {
					t.Fatalf("case %d par=%d: record %d = %d, sequential %d",
						ci, par, i, got.Indices[i], want.Indices[i])
				}
			}
		}
	}
}

// TestQueryParallelStress hammers one parallel engine with concurrent
// queries on a stable table while a second table grows through
// AppendTable, checking every stable-table result against a
// sequential reference engine. Run under -race this pins the
// per-query fan-outs, the shared arena pool, and the index read path
// as free of cross-query data races.
func TestQueryParallelStress(t *testing.T) {
	stable := dataset.Beta(randx.New(5), 40000, 0.01, 2)
	growBase := dataset.Beta(randx.New(6), 8000, 0.5, 1)
	plans := queryParPlans(t)

	ref := queryParEngine(t, 1, stable)
	e := queryParEngine(t, 8, stable)
	e.RegisterDatasetDefaults("g", growBase)

	want := make([]*QueryResult, len(plans))
	for i, plan := range plans {
		res, err := ref.ExecutePlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	growSQL := `SELECT * FROM g WHERE g_oracle(x) = true ORACLE LIMIT 200
	 USING g_proxy(x) RECALL TARGET 90% WITH PROBABILITY 95%`

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 6; iter++ {
				i := (g + iter) % len(plans)
				got, err := e.ExecutePlan(plans[i])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got.Tau != want[i].Tau || len(got.Indices) != len(want[i].Indices) {
					t.Errorf("goroutine %d query %d: tau %v / %d records, want %v / %d",
						g, i, got.Tau, len(got.Indices), want[i].Tau, len(want[i].Indices))
					return
				}
				for j := range want[i].Indices {
					if got.Indices[j] != want[i].Indices[j] {
						t.Errorf("goroutine %d query %d: record %d diverges", g, i, j)
						return
					}
				}
			}
		}(g)
	}
	// Concurrent append + query traffic on the growing table exercises
	// index extension alongside the fan-outs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := randx.New(99)
		for iter := 0; iter < 4; iter++ {
			extra := dataset.Beta(r.Stream(uint64(iter)), 2000, 0.5, 1)
			if _, err := e.AppendTable("g", extra); err != nil {
				t.Errorf("append %d: %v", iter, err)
				return
			}
			if _, err := e.Execute(growSQL); err != nil {
				t.Errorf("growing-table query %d: %v", iter, err)
				return
			}
		}
	}()
	wg.Wait()

	// The stress must not have perturbed determinism: a final quiet
	// pass still matches the sequential reference.
	for i, plan := range plans {
		got, err := e.ExecutePlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tau != want[i].Tau {
			t.Fatalf("post-stress query %d: tau %v, want %v", i, got.Tau, want[i].Tau)
		}
	}
}
