package core

import (
	"math"
	"testing"

	"supg/internal/dataset"
	"supg/internal/metrics"
	"supg/internal/oracle"
	"supg/internal/randx"
)

// trialSummary aggregates independent selections of one cell.
type trialSummary struct {
	// failRate is the share of trials whose answer misses the spec
	// target.
	failRate float64
	// quality is the mean of the opposite metric.
	quality float64
	// certified counts the trials whose answer came with a finite
	// threshold. A precision-target answer without one is the labeled
	// positives alone, whose precision is 1 by construction, so only
	// certified trials can fail a PT target.
	certified int
}

// trialStats runs `trials` independent selections and summarizes them.
func trialStats(t *testing.T, d *dataset.Dataset, spec Spec, cfg Config, trials int, seed uint64) trialSummary {
	t.Helper()
	r := randx.New(seed)
	fails, certified := 0, 0
	qsum := 0.0
	for trial := 0; trial < trials; trial++ {
		res, err := selectFrom(r.Stream(uint64(trial)), NewRawSource(d.Scores()), oracle.NewSimulated(d), spec, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !math.IsInf(res.Tau, 1) {
			certified++
		}
		e := metrics.Evaluate(d, res.Indices)
		var achieved, q float64
		if spec.Kind == RecallTarget {
			achieved, q = e.Recall, e.Precision
		} else {
			achieved, q = e.Precision, e.Recall
		}
		if achieved < spec.Gamma {
			fails++
		}
		qsum += q
	}
	return trialSummary{
		failRate:  float64(fails) / float64(trials),
		quality:   qsum / float64(trials),
		certified: certified,
	}
}

func calibratedDataset(seed uint64, n int) *dataset.Dataset {
	return dataset.Beta(randx.New(seed), n, 0.01, 2)
}

// checkCertifiedPrecision runs a precision-target cell the estimators
// can certify — Beta(1, 1) scores, n=60000, γ=0.75, budget 2000, 60
// trials — and requires both a failure rate within the validity
// tolerance and a finite threshold in at least half the trials. The
// Beta(0.01, 2) cells at γ=0.9 certify none: every answer there is the
// labeled positives alone, whose precision is 1 by construction, so
// their failure-rate assertions cannot fail.
func checkCertifiedPrecision(t *testing.T, name string, dataSeed uint64, cfg Config, seed uint64) {
	t.Helper()
	d := dataset.Beta(randx.New(dataSeed), 60000, 1, 1)
	spec := Spec{Kind: PrecisionTarget, Gamma: 0.75, Delta: 0.05, Budget: 2000}
	checkCertified(t, name, d, spec, cfg, 60, seed, 0.15)
}

// checkCertified requires a precision-target cell to fail at most
// maxFail of its trials and to certify a finite threshold in at least
// half of them.
func checkCertified(t *testing.T, name string, d *dataset.Dataset, spec Spec, cfg Config, trials int, seed uint64, maxFail float64) {
	t.Helper()
	s := trialStats(t, d, spec, cfg, trials, seed)
	t.Logf("%s: %d/%d trials certified, failure rate %v", name, s.certified, trials, s.failRate)
	if s.failRate > maxFail {
		t.Fatalf("%s failure rate %v exceeds %v on the certifiable cell", name, s.failRate, maxFail)
	}
	if s.certified < trials/2 {
		t.Fatalf("%s certified a threshold in %d/%d trials, want at least %d", name, s.certified, trials, trials/2)
	}
}

// --- Validity: the CI methods must respect the failure probability. ---

func TestUCIRecallValidity(t *testing.T) {
	d := calibratedDataset(1, 60000)
	spec := Spec{Kind: RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 2000}
	fail := trialStats(t, d, spec, DefaultUCI(), 60, 10).failRate
	// Binomial(60, 0.05) rarely exceeds 8 failures; allow slack.
	if fail > 0.15 {
		t.Fatalf("U-CI-R failure rate %v far above delta 0.05", fail)
	}
}

func TestUCIPrecisionValidity(t *testing.T) {
	d := calibratedDataset(2, 60000)
	spec := Spec{Kind: PrecisionTarget, Gamma: 0.9, Delta: 0.05, Budget: 2000}
	fail := trialStats(t, d, spec, DefaultUCI(), 60, 11).failRate
	if fail > 0.15 {
		t.Fatalf("U-CI-P failure rate %v far above delta 0.05", fail)
	}
	checkCertifiedPrecision(t, "U-CI-P", 2, DefaultUCI(), 11)
}

func TestISRecallValidity(t *testing.T) {
	d := calibratedDataset(3, 60000)
	spec := Spec{Kind: RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 2000}
	fail := trialStats(t, d, spec, DefaultSUPG(), 60, 12).failRate
	if fail > 0.15 {
		t.Fatalf("IS-CI-R failure rate %v far above delta 0.05", fail)
	}
}

func TestISPrecisionValidity(t *testing.T) {
	d := calibratedDataset(4, 60000)
	spec := Spec{Kind: PrecisionTarget, Gamma: 0.9, Delta: 0.05, Budget: 2000}
	fail := trialStats(t, d, spec, DefaultSUPG(), 60, 13).failRate
	if fail > 0.15 {
		t.Fatalf("IS-CI-P failure rate %v far above delta 0.05", fail)
	}
	checkCertifiedPrecision(t, "IS-CI-P", 4, DefaultSUPG(), 13)
}

func TestISPrecisionOneStageValidity(t *testing.T) {
	d := calibratedDataset(5, 60000)
	cfg := DefaultSUPG()
	cfg.TwoStage = false
	spec := Spec{Kind: PrecisionTarget, Gamma: 0.9, Delta: 0.05, Budget: 2000}
	fail := trialStats(t, d, spec, cfg, 60, 14).failRate
	if fail > 0.15 {
		t.Fatalf("one-stage IS-CI-P failure rate %v far above delta 0.05", fail)
	}
	checkCertifiedPrecision(t, "one-stage IS-CI-P", 5, cfg, 14)
}

// --- The headline claims: U-NoCI fails often; SUPG beats U-CI. ---

func TestUNoCIFailsOften(t *testing.T) {
	// The paper's core negative result (Figures 5/6): the empirical
	// cutoff misses the target roughly half the time.
	d := calibratedDataset(6, 60000)
	spec := Spec{Kind: RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 2000}
	fail := trialStats(t, d, spec, DefaultUNoCI(), 60, 15).failRate
	if fail < 0.2 {
		t.Fatalf("U-NoCI failure rate %v suspiciously low; expected frequent failures", fail)
	}
}

func TestSUPGBeatsUniformOnPrecisionTarget(t *testing.T) {
	// Figure 7's shape: importance sampling yields much higher recall
	// at a precision target on rare-event data.
	d := calibratedDataset(7, 100000)
	spec := Spec{Kind: PrecisionTarget, Gamma: 0.9, Delta: 0.05, Budget: 2000}
	uQual := trialStats(t, d, spec, DefaultUCI(), 20, 16).quality
	sQual := trialStats(t, d, spec, DefaultSUPG(), 20, 17).quality
	if sQual <= uQual {
		t.Fatalf("SUPG recall %v should beat U-CI %v on rare events", sQual, uQual)
	}
}

func TestSqrtWeightsBeatUniformOnRecallTarget(t *testing.T) {
	// Figure 8's shape at a mid recall target.
	d := calibratedDataset(8, 200000)
	spec := Spec{Kind: RecallTarget, Gamma: 0.7, Delta: 0.05, Budget: 4000}
	uQual := trialStats(t, d, spec, DefaultUCI(), 15, 18).quality
	sQual := trialStats(t, d, spec, DefaultSUPG(), 15, 19).quality
	if sQual <= uQual {
		t.Fatalf("SUPG precision %v should beat U-CI %v", sQual, uQual)
	}
}

// --- Structural behavior. ---

func TestUNoCIRecallEmpiricalThreshold(t *testing.T) {
	// A tiny fully-labeled dataset where the math is checkable by hand:
	// budget = n so the "sample" is the entire dataset.
	scores := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	labels := []bool{false, true, false, true, false, true, false, true, true, true}
	d := dataset.MustNew("hand", scores, labels)
	spec := Spec{Kind: RecallTarget, Gamma: 0.5, Delta: 0.05, Budget: 10}
	budgeted := oracle.NewBudgeted(oracle.NewSimulated(d), 10)
	tr, err := SelectBudgeted(randx.New(1), NewRawSource(scores), budgeted, spec, DefaultUNoCI())
	if err != nil {
		t.Fatal(err)
	}
	// 6 positives at 0.2,0.4,0.6,0.8,0.9,1.0; recall >= 0.5 needs 3:
	// tau = 0.8.
	if tr.Tau != 0.8 {
		t.Fatalf("tau = %v, want 0.8", tr.Tau)
	}
}

func TestRecallTauShrinksWithGamma(t *testing.T) {
	d := calibratedDataset(9, 50000)
	r := randx.New(20)
	prev := math.Inf(1)
	for _, gamma := range []float64{0.5, 0.7, 0.9, 0.99} {
		spec := Spec{Kind: RecallTarget, Gamma: gamma, Delta: 0.05, Budget: 2000}
		budgeted := oracle.NewBudgeted(oracle.NewSimulated(d), spec.Budget)
		tr, err := SelectBudgeted(randx.New(555), NewRawSource(d.Scores()), budgeted, spec, DefaultUCI())
		if err != nil {
			t.Fatal(err)
		}
		if tr.Tau > prev {
			t.Fatalf("tau(%v)=%v exceeds tau at smaller gamma %v", gamma, tr.Tau, prev)
		}
		prev = tr.Tau
	}
	_ = r
}

func TestBudgetRespected(t *testing.T) {
	d := calibratedDataset(10, 30000)
	for _, cfg := range []Config{DefaultUNoCI(), DefaultUCI(), DefaultSUPG()} {
		for _, kind := range []TargetKind{RecallTarget, PrecisionTarget} {
			spec := Spec{Kind: kind, Gamma: 0.9, Delta: 0.05, Budget: 777}
			sim := oracle.NewSimulated(d)
			res, err := selectFrom(randx.New(21), NewRawSource(d.Scores()), sim, spec, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", cfg.Method, kind, err)
			}
			if res.OracleCalls > 777 {
				t.Fatalf("%v/%v consumed %d > budget 777", cfg.Method, kind, res.OracleCalls)
			}
			if sim.Calls() > 777 {
				t.Fatalf("%v/%v made %d raw oracle calls > budget", cfg.Method, kind, sim.Calls())
			}
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	d := calibratedDataset(11, 30000)
	spec := Spec{Kind: PrecisionTarget, Gamma: 0.9, Delta: 0.05, Budget: 1000}
	a, err := selectFrom(randx.New(42), NewRawSource(d.Scores()), oracle.NewSimulated(d), spec, DefaultSUPG())
	if err != nil {
		t.Fatal(err)
	}
	b, err := selectFrom(randx.New(42), NewRawSource(d.Scores()), oracle.NewSimulated(d), spec, DefaultSUPG())
	if err != nil {
		t.Fatal(err)
	}
	if a.Tau != b.Tau || len(a.Indices) != len(b.Indices) {
		t.Fatal("same seed should reproduce the identical result")
	}
}

func TestNoPositivesRecallReturnsEverything(t *testing.T) {
	// A dataset whose positives are so rare the sample sees none: the
	// only recall-safe answer is the full dataset.
	n := 10000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = 0.5
	}
	labels[n-1] = true
	d := dataset.MustNew("rare", scores, labels)
	spec := Spec{Kind: RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 50}
	res, err := selectFrom(randx.New(22), NewRawSource(d.Scores()), oracle.NewSimulated(d), spec, DefaultUCI())
	if err != nil {
		t.Fatal(err)
	}
	e := metrics.Evaluate(d, res.Indices)
	if e.Recall < 0.9 {
		t.Fatalf("fallback result recall %v misses target", e.Recall)
	}
}

func TestNoPositivesPrecisionReturnsLabeledOnly(t *testing.T) {
	n := 5000
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = float64(i) / float64(n)
	}
	labels := make([]bool, n) // all negative
	d := dataset.MustNew("neg", scores, labels)
	spec := Spec{Kind: PrecisionTarget, Gamma: 0.9, Delta: 0.05, Budget: 100}
	res, err := selectFrom(randx.New(23), NewRawSource(d.Scores()), oracle.NewSimulated(d), spec, DefaultUCI())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indices) != 0 {
		t.Fatalf("all-negative dataset returned %d records; empty set is the only valid PT result", len(res.Indices))
	}
}

func TestAllPositives(t *testing.T) {
	n := 3000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = 0.5 + float64(i)/(2*float64(n))
		labels[i] = true
	}
	d := dataset.MustNew("allpos", scores, labels)
	for _, kind := range []TargetKind{RecallTarget, PrecisionTarget} {
		spec := Spec{Kind: kind, Gamma: 0.9, Delta: 0.05, Budget: 500}
		res, err := selectFrom(randx.New(24), NewRawSource(d.Scores()), oracle.NewSimulated(d), spec, DefaultSUPG())
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		e := metrics.Evaluate(d, res.Indices)
		if kind == RecallTarget && e.Recall < 0.9 {
			t.Fatalf("recall %v", e.Recall)
		}
		if kind == PrecisionTarget && e.Precision < 0.9 {
			t.Fatalf("precision %v", e.Precision)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Kind: RecallTarget, Gamma: 0, Delta: 0.05, Budget: 100},
		{Kind: RecallTarget, Gamma: 1.2, Delta: 0.05, Budget: 100},
		{Kind: RecallTarget, Gamma: 0.9, Delta: 0, Budget: 100},
		{Kind: RecallTarget, Gamma: 0.9, Delta: 1, Budget: 100},
		{Kind: RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 1},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("spec %d should be invalid: %+v", i, s)
		}
	}
	good := Spec{Kind: PrecisionTarget, Gamma: 0.9, Delta: 0.05, Budget: 100}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestEstimateTauRejectsEmptyDataset(t *testing.T) {
	spec := Spec{Kind: RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 100}
	budgeted := oracle.NewBudgeted(oracle.Func(func(int) (bool, error) { return false, nil }), 100)
	if _, err := SelectBudgeted(randx.New(1), NewRawSource(nil), budgeted, spec, DefaultSUPG()); err == nil {
		t.Fatal("empty dataset should error")
	}
}

func TestUnknownMethod(t *testing.T) {
	d := calibratedDataset(12, 5000)
	spec := Spec{Kind: RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 100}
	cfg := Config{Method: Method(99)}
	if _, err := selectFrom(randx.New(1), NewRawSource(d.Scores()), oracle.NewSimulated(d), spec, cfg); err == nil {
		t.Fatal("unknown method should error")
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	// Exponent 0 with mix 0 is uniform sampling, not an unset config.
	c := Config{Method: MethodISCI}.normalize()
	if c.WeightExponent != 0 || c.Mix != 0 || c.MinStep != 100 {
		t.Errorf("normalize rewrote a zero exponent or mix, or left MinStep unset: %+v", c)
	}
	c2 := Config{Method: MethodISCI, WeightExponent: 1.0}.normalize()
	if c2.WeightExponent != 1.0 {
		t.Error("normalize should preserve explicit exponent")
	}
}

func TestMethodStrings(t *testing.T) {
	if MethodUNoCI.String() != "U-NoCI" || MethodUCI.String() != "U-CI" || MethodISCI.String() != "IS-CI" {
		t.Error("method strings")
	}
	if RecallTarget.String() != "recall" || PrecisionTarget.String() != "precision" {
		t.Error("target kind strings")
	}
}

func TestAssembleUnion(t *testing.T) {
	scores := []float64{0.1, 0.5, 0.9, 0.95}
	res := assemble(scores, 0.9, labeledBudget(t, map[int]bool{0: true, 1: false}))
	// R2 = {2, 3}; R1 adds labeled positive 0; label-negative 1 excluded.
	want := []int{0, 2, 3}
	if len(res.Indices) != len(want) {
		t.Fatalf("indices %v, want %v", res.Indices, want)
	}
	for i := range want {
		if res.Indices[i] != want[i] {
			t.Fatalf("indices %v, want %v", res.Indices, want)
		}
	}
	if res.SampledPositives != 1 {
		t.Fatalf("SampledPositives = %d, want 1 (record 0 below tau)", res.SampledPositives)
	}
}

func TestAssembleNoSelection(t *testing.T) {
	scores := []float64{0.1, 0.9}
	res := assemble(scores, noSelectionTau(), labeledBudget(t, map[int]bool{1: true}))
	if len(res.Indices) != 1 || res.Indices[0] != 1 {
		t.Fatalf("expected only the labeled positive, got %v", res.Indices)
	}
}

func TestScoreIndex(t *testing.T) {
	ix := newScoreIndex([]float64{0.5, 0.1, 0.9, 0.5})
	if got := ix.countAtLeast(0.5); got != 3 {
		t.Errorf("countAtLeast(0.5) = %d, want 3", got)
	}
	if got := ix.countAtLeast(0.91); got != 0 {
		t.Errorf("countAtLeast(0.91) = %d, want 0", got)
	}
	if got := ix.countAtLeast(0); got != 4 {
		t.Errorf("countAtLeast(0) = %d, want 4", got)
	}
	if ix.kthHighest(0) != 0.9 {
		t.Error("kthHighest(0)")
	}
	if ix.kthHighest(3) != 0.1 {
		t.Error("kthHighest(3)")
	}
	if ix.kthHighest(100) != 0.1 {
		t.Error("kthHighest clamps to min")
	}
}

func TestTwoStageTightensStageOne(t *testing.T) {
	// On strongly separated data, the two-stage PT algorithm should be
	// at least as good as one-stage (Figure 7's claim).
	d := calibratedDataset(13, 150000)
	spec := Spec{Kind: PrecisionTarget, Gamma: 0.9, Delta: 0.05, Budget: 2000}
	one := DefaultSUPG()
	one.TwoStage = false
	oneQ := trialStats(t, d, spec, one, 15, 30).quality
	twoQ := trialStats(t, d, spec, DefaultSUPG(), 15, 31).quality
	if twoQ < oneQ*0.7 {
		t.Fatalf("two-stage recall %v much worse than one-stage %v", twoQ, oneQ)
	}
}

func TestDefensiveMixingGuardsAdversarialProxy(t *testing.T) {
	// With an inverted (anti-correlated) proxy the guarantee must still
	// hold thanks to defensive mixing — the result is just low quality.
	base := calibratedDataset(14, 40000)
	inv := base.Clone()
	for i, s := range inv.Scores() {
		inv.Scores()[i] = 1 - s
	}
	spec := Spec{Kind: RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 2000}
	fail := trialStats(t, inv, spec, DefaultSUPG(), 40, 32).failRate
	if fail > 0.15 {
		t.Fatalf("adversarial proxy broke the recall guarantee: fail rate %v", fail)
	}
}

func TestExponentSweepInteriorOptimum(t *testing.T) {
	// Figure 12's shape: sqrt weighting should (weakly) beat both
	// endpoints on calibrated rare-event data.
	d := calibratedDataset(15, 150000)
	spec := Spec{Kind: RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 3000}
	quality := map[float64]float64{}
	for _, exp := range []float64{0, 0.5, 1} {
		cfg := DefaultSUPG()
		cfg.WeightExponent = exp
		q := trialStats(t, d, spec, cfg, 15, uint64(40+int(exp*10))).quality
		quality[exp] = q
	}
	if quality[0.5] < quality[0]*0.8 {
		t.Fatalf("sqrt quality %v should not be far below uniform %v", quality[0.5], quality[0])
	}
}
