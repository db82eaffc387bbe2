package supg_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"supg"
)

func TestRunRecallQuery(t *testing.T) {
	ds := supg.GenerateBeta(1, 50000, 0.01, 2)
	res, err := supg.Run(ds.Scores(), supg.SimulatedOracle(ds), supg.Query{
		Kind:        supg.RecallQuery,
		Target:      0.9,
		Probability: 0.95,
		OracleLimit: 2000,
	}, supg.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.OracleCalls > 2000 {
		t.Fatalf("oracle calls %d exceed limit", res.OracleCalls)
	}
	eval := supg.Evaluate(ds, res.Indices)
	if eval.Recall < 0.8 {
		t.Fatalf("recall %v implausible for a 90%% target", eval.Recall)
	}
}

func TestRunPrecisionQuery(t *testing.T) {
	ds := supg.GenerateBeta(2, 50000, 0.01, 2)
	res, err := supg.Run(ds.Scores(), supg.SimulatedOracle(ds), supg.Query{
		Kind:        supg.PrecisionQuery,
		Target:      0.9,
		Probability: 0.95,
		OracleLimit: 2000,
	}, supg.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	eval := supg.Evaluate(ds, res.Indices)
	if eval.Precision < 0.8 {
		t.Fatalf("precision %v implausible for a 90%% target", eval.Precision)
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	ds := supg.GenerateBeta(3, 20000, 0.01, 2)
	q := supg.Query{Kind: supg.RecallQuery, Target: 0.9, Probability: 0.95, OracleLimit: 1000}
	a, err := supg.Run(ds.Scores(), supg.SimulatedOracle(ds), q, supg.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := supg.Run(ds.Scores(), supg.SimulatedOracle(ds), q, supg.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Tau != b.Tau || len(a.Indices) != len(b.Indices) {
		t.Fatal("same seed should reproduce")
	}
	c, err := supg.Run(ds.Scores(), supg.SimulatedOracle(ds), q, supg.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if a.Tau == c.Tau && len(a.Indices) == len(c.Indices) && a.OracleCalls == c.OracleCalls {
		t.Log("different seeds happened to coincide (unlikely but not fatal)")
	}
}

func TestRunMethodOptions(t *testing.T) {
	ds := supg.GenerateBeta(4, 20000, 0.01, 2)
	q := supg.Query{Kind: supg.RecallQuery, Target: 0.8, Probability: 0.95, OracleLimit: 1000}
	for _, m := range []supg.Method{supg.MethodSUPG, supg.MethodUniform, supg.MethodNoGuarantee} {
		if _, err := supg.Run(ds.Scores(), supg.SimulatedOracle(ds), q, supg.WithMethod(m)); err != nil {
			t.Fatalf("method %v: %v", m, err)
		}
	}
}

func TestRunTuningOptions(t *testing.T) {
	ds := supg.GenerateBeta(5, 20000, 0.01, 2)
	q := supg.Query{Kind: supg.PrecisionQuery, Target: 0.8, Probability: 0.95, OracleLimit: 1000}
	_, err := supg.Run(ds.Scores(), supg.SimulatedOracle(ds), q,
		supg.WithSeed(9),
		supg.WithWeightExponent(0.7),
		supg.WithDefensiveMixing(0.2),
		supg.WithCandidateStride(50),
		supg.WithTwoStage(false),
		supg.WithCI(supg.CIBootstrap))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunCIMethods(t *testing.T) {
	ds := supg.GenerateBeta(6, 20000, 0.05, 1)
	q := supg.Query{Kind: supg.RecallQuery, Target: 0.8, Probability: 0.95, OracleLimit: 1000}
	for _, ci := range []supg.CIMethod{supg.CINormal, supg.CIHoeffding, supg.CIBootstrap} {
		if _, err := supg.Run(ds.Scores(), supg.SimulatedOracle(ds), q, supg.WithCI(ci)); err != nil {
			t.Fatalf("CI %v: %v", ci, err)
		}
	}
	// Clopper-Pearson applies to uniform sampling.
	if _, err := supg.Run(ds.Scores(), supg.SimulatedOracle(ds), q,
		supg.WithMethod(supg.MethodUniform), supg.WithCI(supg.CIClopperPearson)); err != nil {
		t.Fatalf("CP with uniform: %v", err)
	}
}

// TestClopperPearsonNeedsUniformSampling: the exact binomial bound
// holds for 0/1 samples only, so under the default importance-sampling
// method every entry point returns an error instead of panicking.
func TestClopperPearsonNeedsUniformSampling(t *testing.T) {
	ds := supg.GenerateBeta(1, 20000, 0.01, 2)
	orc := supg.SimulatedOracle(ds)
	q := supg.Query{Kind: supg.RecallQuery, Target: 0.9, Probability: 0.95, OracleLimit: 1000}
	jq := supg.JointQuery{RecallTarget: 0.9, PrecisionTarget: 0.9, Probability: 0.95, StageBudget: 1000}
	cp := supg.WithCI(supg.CIClopperPearson)
	runs := map[string]func() error{
		"Run": func() error {
			_, err := supg.Run(ds.Scores(), orc, q, cp)
			return err
		},
		"RunJoint": func() error {
			_, err := supg.RunJoint(ds.Scores(), orc, jq, cp)
			return err
		},
		"RunMulti": func() error {
			_, err := supg.RunMulti([][]float64{ds.Scores(), ds.Scores()}, orc, q, supg.FuseMean, cp)
			return err
		},
	}
	for name, run := range runs {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s panicked: %v", name, p)
				}
			}()
			if err := run(); err == nil {
				t.Errorf("%s accepted Clopper-Pearson under importance sampling", name)
			}
		}()
	}
}

// TestZeroWeightExponentIsUniform: exponent 0 gives every record the
// same importance weight, so any defensive mix leaves the sampling
// uniform. With mix 0 as well, the run must stay uniform rather than
// fall back to the paper's 0.5/0.1.
func TestZeroWeightExponentIsUniform(t *testing.T) {
	ds := supg.GenerateBeta(1, 20000, 0.01, 2)
	q := supg.Query{Kind: supg.RecallQuery, Target: 0.9, Probability: 0.95, OracleLimit: 1000}
	run := func(opts ...supg.Option) *supg.Result {
		t.Helper()
		res, err := supg.Run(ds.Scores(), supg.SimulatedOracle(ds), q, append(opts, supg.WithSeed(1))...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	uniform := run(supg.WithWeightExponent(0), supg.WithDefensiveMixing(0))
	if reflect.DeepEqual(uniform, run()) {
		t.Fatal("exponent 0 with mix 0 answered exactly like the default 0.5/0.1 config")
	}
	if mixed := run(supg.WithWeightExponent(0), supg.WithDefensiveMixing(1e-4)); !reflect.DeepEqual(uniform, mixed) {
		t.Fatalf("exponent 0 returned %d records with mix 0 and %d with mix 1e-4; both sample uniformly",
			len(uniform.Indices), len(mixed.Indices))
	}
}

func TestRunValidationErrors(t *testing.T) {
	ds := supg.GenerateBeta(7, 5000, 1, 1)
	bad := []supg.Query{
		{Kind: supg.RecallQuery, Target: 0, Probability: 0.95, OracleLimit: 100},
		{Kind: supg.RecallQuery, Target: 0.9, Probability: 1.0, OracleLimit: 100},
		{Kind: supg.RecallQuery, Target: 0.9, Probability: 0.95, OracleLimit: 0},
		{Kind: supg.QueryKind(9), Target: 0.9, Probability: 0.95, OracleLimit: 100},
	}
	for i, q := range bad {
		if _, err := supg.Run(ds.Scores(), supg.SimulatedOracle(ds), q); err == nil {
			t.Errorf("query %d should be rejected", i)
		}
	}
}

func TestRunJoint(t *testing.T) {
	ds := supg.GenerateBeta(8, 30000, 0.01, 2)
	res, err := supg.RunJoint(ds.Scores(), supg.SimulatedOracle(ds), supg.JointQuery{
		RecallTarget:    0.8,
		PrecisionTarget: 0.9,
		Probability:     0.95,
		StageBudget:     1500,
	}, supg.WithSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	eval := supg.Evaluate(ds, res.Indices)
	if eval.Precision != 1 {
		t.Fatalf("joint precision %v, want 1 (verified positives only)", eval.Precision)
	}
	if eval.Recall < 0.8 {
		t.Fatalf("joint recall %v", eval.Recall)
	}
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := supg.NewDataset("x", []float64{2}, []bool{true}); err == nil {
		t.Error("invalid dataset accepted")
	}
	d, err := supg.NewDataset("x", []float64{0.5, 0.7}, []bool{false, true})
	if err != nil || d.Len() != 2 {
		t.Fatalf("valid dataset rejected: %v", err)
	}
}

func TestDatasetCSVFacade(t *testing.T) {
	d := supg.GenerateBeta(9, 500, 1, 1)
	var buf bytes.Buffer
	if err := supg.WriteDatasetCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := supg.ReadDatasetCSV(&buf, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.PositiveCount() != d.PositiveCount() {
		t.Fatal("CSV roundtrip mismatch")
	}
}

func TestEngineFacade(t *testing.T) {
	ds := supg.GenerateBeta(10, 20000, 0.01, 2)
	eng, err := supg.OpenEngine(3, supg.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng.RegisterDatasetDefaults("tbl", ds)
	res, err := eng.ExecuteContext(context.Background(), `
		SELECT * FROM tbl
		WHERE tbl_oracle(x) = true
		ORACLE LIMIT 800
		USING tbl_proxy(x)
		RECALL TARGET 85%
		WITH PROBABILITY 95%`, supg.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OracleCalls > 800 {
		t.Fatalf("budget exceeded: %d", res.OracleCalls)
	}
	if !strings.Contains(res.Plan.SourceText, "RECALL TARGET") {
		t.Error("plan source text missing")
	}
}

func TestOracleFuncErrorsPropagate(t *testing.T) {
	ds := supg.GenerateBeta(11, 5000, 1, 1)
	boom := errors.New("labeler offline")
	orc := supg.OracleFunc(func(i int) (bool, error) { return false, boom })
	_, err := supg.Run(ds.Scores(), orc, supg.Query{
		Kind: supg.RecallQuery, Target: 0.9, Probability: 0.95, OracleLimit: 100,
	})
	if err == nil || !strings.Contains(err.Error(), "labeler offline") {
		t.Fatalf("oracle error lost: %v", err)
	}
}

func TestRunMulti(t *testing.T) {
	ds := supg.GenerateBeta(12, 30000, 0.05, 1)
	// Two noisy views of the same proxy.
	cols := make([][]float64, 2)
	for c := range cols {
		cols[c] = make([]float64, ds.Len())
		copy(cols[c], ds.Scores())
	}
	q := supg.Query{Kind: supg.RecallQuery, Target: 0.85, Probability: 0.95, OracleLimit: 1500}
	for _, fusion := range []supg.Fusion{supg.FuseMean, supg.FuseMax, supg.FuseLogistic} {
		res, err := supg.RunMulti(cols, supg.SimulatedOracle(ds), q, fusion, supg.WithSeed(13))
		if err != nil {
			t.Fatalf("%v: %v", fusion, err)
		}
		if res.OracleCalls > q.OracleLimit {
			t.Fatalf("%v: budget exceeded (%d)", fusion, res.OracleCalls)
		}
		eval := supg.Evaluate(ds, res.Indices)
		if eval.Recall < 0.7 {
			t.Fatalf("%v: recall %v implausible", fusion, eval.Recall)
		}
	}
}

func TestRunMultiValidation(t *testing.T) {
	ds := supg.GenerateBeta(13, 2000, 1, 1)
	q := supg.Query{Kind: supg.RecallQuery, Target: 0, Probability: 0.95, OracleLimit: 100}
	if _, err := supg.RunMulti([][]float64{ds.Scores()}, supg.SimulatedOracle(ds), q, supg.FuseMean); err == nil {
		t.Fatal("invalid query accepted")
	}
}

func TestQueryKindString(t *testing.T) {
	if supg.RecallQuery.String() != "recall" || supg.PrecisionQuery.String() != "precision" {
		t.Error("QueryKind strings")
	}
}
