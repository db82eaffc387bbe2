package engine

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"supg/internal/core"
	"supg/internal/dataset"
	"supg/internal/metrics"
	"supg/internal/query"
	"supg/internal/randx"
)

// openEngine opens an engine, failing tb when Open does.
func openEngine(tb testing.TB, seed uint64, opts Options) *Engine {
	tb.Helper()
	e, err := Open(seed, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// execute runs sql with no cancellation and the default ExecOptions.
func execute(e *Engine, sql string) (*QueryResult, error) {
	return e.ExecuteContext(context.Background(), sql, ExecOptions{})
}

// executePlan runs plan with no cancellation and the default
// ExecOptions.
func executePlan(e *Engine, plan *query.Plan) (*QueryResult, error) {
	return e.ExecutePlanContext(context.Background(), plan, ExecOptions{})
}

func testEngine(t *testing.T) (*Engine, *dataset.Dataset) {
	t.Helper()
	d := dataset.Beta(randx.New(1), 30000, 0.01, 2)
	e := openEngine(t, 42, Options{})
	e.RegisterDatasetDefaults("video", d)
	return e, d
}

const engineRT = `
	SELECT * FROM video
	WHERE video_oracle(frame) = true
	ORACLE LIMIT 1000
	USING video_proxy(frame)
	RECALL TARGET 90%
	WITH PROBABILITY 95%`

func TestExecuteRecallQuery(t *testing.T) {
	e, d := testEngine(t)
	res, err := execute(e, engineRT)
	if err != nil {
		t.Fatal(err)
	}
	if res.OracleCalls > 1000 {
		t.Fatalf("oracle calls %d exceed limit", res.OracleCalls)
	}
	if res.ProxyCalls != d.Len() {
		t.Fatalf("proxy calls %d, want full scan %d", res.ProxyCalls, d.Len())
	}
	if len(res.Indices) == 0 {
		t.Fatal("empty result")
	}
	eval := metrics.Evaluate(d, res.Indices)
	if eval.Recall < 0.5 {
		t.Fatalf("recall %v implausibly low for a 90%% target", eval.Recall)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}

func TestExecutePrecisionQuery(t *testing.T) {
	e, d := testEngine(t)
	res, err := execute(e, `
		SELECT * FROM video
		WHERE video_oracle(frame) = true
		ORACLE LIMIT 1000
		USING video_proxy(frame)
		PRECISION TARGET 90%
		WITH PROBABILITY 95%`)
	if err != nil {
		t.Fatal(err)
	}
	eval := metrics.Evaluate(d, res.Indices)
	if eval.Precision < 0.7 {
		t.Fatalf("precision %v too low for a 90%% target", eval.Precision)
	}
}

func TestExecuteJointQuery(t *testing.T) {
	e, d := testEngine(t)
	res, err := execute(e, `
		SELECT * FROM video
		WHERE video_oracle(frame) = true
		USING video_proxy(frame)
		RECALL TARGET 80%
		PRECISION TARGET 90%
		WITH PROBABILITY 95%`)
	if err != nil {
		t.Fatal(err)
	}
	eval := metrics.Evaluate(d, res.Indices)
	if eval.Precision != 1 {
		t.Fatalf("joint query precision %v, want 1", eval.Precision)
	}
}

func TestExecuteUnknownTable(t *testing.T) {
	e, _ := testEngine(t)
	_, err := execute(e, strings.Replace(engineRT, "FROM video", "FROM nope", 1))
	if err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("err = %v", err)
	}
}

func TestExecuteUnknownUDFs(t *testing.T) {
	e, _ := testEngine(t)
	_, err := execute(e, strings.Replace(engineRT, "video_oracle", "mystery", 1))
	if err == nil || !strings.Contains(err.Error(), "unknown oracle") {
		t.Fatalf("err = %v", err)
	}
	_, err = execute(e, strings.Replace(engineRT, "video_proxy", "mystery", 1))
	if err == nil || !strings.Contains(err.Error(), "unknown proxy") {
		t.Fatalf("err = %v", err)
	}
}

func TestExecuteParseErrorPropagates(t *testing.T) {
	e, _ := testEngine(t)
	if _, err := execute(e, "SELECT nothing"); err == nil {
		t.Fatal("parse error should propagate")
	}
}

func TestProxyRangeValidation(t *testing.T) {
	d := dataset.Beta(randx.New(2), 1000, 1, 1)
	e := openEngine(t, 1, Options{})
	e.RegisterTable("t", d)
	e.RegisterOracle("o", func(i int) (bool, error) { return d.TrueLabel(i), nil })
	e.RegisterProxy("p", func(i int) float64 { return 1.5 }) // invalid
	_, err := execute(e, `SELECT * FROM t WHERE o(x) ORACLE LIMIT 100 USING p(x) RECALL TARGET 90% WITH PROBABILITY 95%`)
	if err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
		t.Fatalf("err = %v", err)
	}
}

func TestCustomUDFRegistration(t *testing.T) {
	d := dataset.Beta(randx.New(3), 20000, 0.01, 2)
	e := openEngine(t, 5, Options{})
	e.RegisterTable("t", d)
	oracleCalls := 0
	e.RegisterOracle("my_oracle", func(i int) (bool, error) {
		oracleCalls++
		return d.TrueLabel(i), nil
	})
	e.RegisterProxy("my_proxy", func(i int) float64 { return d.Score(i) })
	res, err := execute(e, `SELECT * FROM t WHERE my_oracle(x) ORACLE LIMIT 500 USING my_proxy(x) RECALL TARGET 80% WITH PROBABILITY 95%`)
	if err != nil {
		t.Fatal(err)
	}
	if oracleCalls == 0 || oracleCalls > 500 {
		t.Fatalf("custom oracle called %d times", oracleCalls)
	}
	if res.Plan == nil || res.Plan.Spec.Kind != core.RecallTarget {
		t.Error("plan not echoed")
	}
}

func TestExecutePlanDeterministicForSameQuery(t *testing.T) {
	e, _ := testEngine(t)
	a, err := execute(e, engineRT)
	if err != nil {
		t.Fatal(err)
	}
	b, err := execute(e, engineRT)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tau != b.Tau || len(a.Indices) != len(b.Indices) {
		t.Fatal("identical query on same engine seed should reproduce")
	}
}

func TestExecutePlanDirect(t *testing.T) {
	e, _ := testEngine(t)
	q, err := query.Parse(engineRT)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultUCI()
	plan, err := query.BuildPlan(q, query.PlanOptions{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := executePlan(e, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Config.Method != core.MethodUCI {
		t.Error("plan config not honored")
	}
}

// TestOmitIndicesKeepsTheAnswer runs recall, precision (with and
// without a certifiable threshold) and joint queries with the zero
// ExecOptions and with OmitIndices: the opted-out result lists no ids,
// and its answer counts exactly the zero-options Indices, lists them
// over its index, and carries the same Tau and oracle calls.
func TestOmitIndicesKeepsTheAnswer(t *testing.T) {
	e, _ := testEngine(t)
	for _, sql := range []string{
		engineRT,
		strings.Replace(engineRT, "RECALL TARGET 90%", "PRECISION TARGET 90%", 1),
		strings.NewReplacer("RECALL TARGET 90%", "PRECISION TARGET 99%", "ORACLE LIMIT 1000", "ORACLE LIMIT 20").Replace(engineRT),
		strings.NewReplacer("ORACLE LIMIT 1000", "", "RECALL TARGET 90%", "RECALL TARGET 80% PRECISION TARGET 90%").Replace(engineRT),
	} {
		listed, err := execute(e, sql)
		if err != nil {
			t.Fatal(err)
		}
		omitted, err := e.ExecuteContext(context.Background(), sql, ExecOptions{OmitIndices: true})
		if err != nil {
			t.Fatal(err)
		}
		if omitted.Indices != nil {
			t.Fatalf("%s: OmitIndices listed %d ids", sql, len(omitted.Indices))
		}
		if n := omitted.Answer.Len(omitted.Index); n != len(listed.Indices) {
			t.Fatalf("%s: the answer counts %d ids, the zero options list %d", sql, n, len(listed.Indices))
		}
		if got := omitted.Answer.List(omitted.Index); !slices.Equal(got, listed.Indices) {
			t.Fatalf("%s: the answer lists other ids than the zero options", sql)
		}
		if math.Float64bits(omitted.Tau) != math.Float64bits(listed.Tau) || omitted.OracleCalls != listed.OracleCalls {
			t.Fatalf("%s: tau/calls %v/%d, want %v/%d", sql, omitted.Tau, omitted.OracleCalls, listed.Tau, listed.OracleCalls)
		}
	}
}
