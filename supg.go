package supg

import (
	"context"
	"fmt"

	"supg/internal/core"
	"supg/internal/oracle"
	"supg/internal/randx"
)

// Oracle evaluates the expensive ground-truth predicate for a record
// index. Implementations are typically human-labeling interfaces or
// large-model invocations.
type Oracle = oracle.Oracle

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc = oracle.Func

// QueryKind selects the guaranteed metric.
type QueryKind int

const (
	// RecallQuery guarantees Recall(result) >= Target.
	RecallQuery QueryKind = iota
	// PrecisionQuery guarantees Precision(result) >= Target.
	PrecisionQuery
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	if k == RecallQuery {
		return "recall"
	}
	return "precision"
}

// Query is a budgeted SUPG query: guarantee the Target metric with
// probability Probability using at most OracleLimit oracle calls.
type Query struct {
	Kind        QueryKind
	Target      float64 // minimum recall or precision, in (0, 1]
	Probability float64 // success probability 1-delta, in (0, 1)
	OracleLimit int     // oracle call budget
}

// JointQuery is an appendix-style query guaranteeing both targets
// simultaneously; the oracle may be called an unbounded number of
// times, with StageBudget allocated to the internal recall stage.
type JointQuery struct {
	RecallTarget    float64
	PrecisionTarget float64
	Probability     float64
	StageBudget     int
}

// Result is a SUPG query answer.
type Result struct {
	// Indices is the sorted set of selected record indices.
	Indices []int
	// Tau is the proxy threshold used; records with score >= Tau were
	// selected (plus oracle-verified positives from the sample).
	Tau float64
	// OracleCalls is the number of oracle invocations consumed.
	OracleCalls int
}

// Option customizes Run's algorithm configuration.
type Option func(*runConfig)

type runConfig struct {
	cfg   core.Config
	seed  uint64
	calib int
}

// WithSeed fixes the random seed; runs with equal seeds and inputs are
// deterministic. The default seed is 1.
func WithSeed(seed uint64) Option {
	return func(rc *runConfig) { rc.seed = seed }
}

// WithCalibrationBudget caps the oracle labels RunMulti's logistic
// fusion spends fitting its stacker (default: 20% of the query budget,
// at least 30 calls, at most half). Calibration shares the query's
// oracle budget, so raising it trades threshold-estimation sample size
// for stacker quality. Label-free fusions ignore it.
func WithCalibrationBudget(labels int) Option {
	return func(rc *runConfig) { rc.calib = labels }
}

// Method selects between the paper's algorithm families.
type Method int

const (
	// MethodSUPG is the paper's importance-sampling algorithm (default).
	MethodSUPG Method = iota
	// MethodUniform is uniform sampling with confidence intervals
	// (the U-CI baseline).
	MethodUniform
	// MethodNoGuarantee is the prior-work empirical cutoff (U-NoCI);
	// it provides no failure-probability guarantee.
	MethodNoGuarantee
)

// WithMethod selects the algorithm family.
func WithMethod(m Method) Option {
	return func(rc *runConfig) {
		switch m {
		case MethodSUPG:
			rc.cfg = core.DefaultSUPG()
		case MethodUniform:
			rc.cfg = core.DefaultUCI()
		case MethodNoGuarantee:
			rc.cfg = core.DefaultUNoCI()
		}
	}
}

// WithWeightExponent overrides the importance-weight exponent (paper
// optimum 0.5; 0 = uniform, 1 = proportional).
func WithWeightExponent(e float64) Option {
	return func(rc *runConfig) { rc.cfg.WeightExponent = e }
}

// WithDefensiveMixing overrides the uniform-mixing ratio (paper: 0.1).
func WithDefensiveMixing(mix float64) Option {
	return func(rc *runConfig) { rc.cfg.Mix = mix }
}

// WithCandidateStride overrides the precision-target candidate stride m
// (paper: 100).
func WithCandidateStride(m int) Option {
	return func(rc *runConfig) { rc.cfg.MinStep = m }
}

// WithTwoStage toggles two-stage sampling for precision targets
// (paper default: enabled).
func WithTwoStage(on bool) Option {
	return func(rc *runConfig) { rc.cfg.TwoStage = on }
}

// CIMethod selects the confidence-interval construction.
type CIMethod int

const (
	// CINormal is the paper's default normal approximation.
	CINormal CIMethod = iota
	// CIHoeffding is the distribution-free Hoeffding bound.
	CIHoeffding
	// CIBootstrap is the percentile bootstrap.
	CIBootstrap
	// CIClopperPearson is the exact binomial interval (uniform
	// sampling only: a MethodSUPG query that selects it returns an
	// error).
	CIClopperPearson
)

// WithCI selects the confidence-interval construction.
func WithCI(m CIMethod) Option {
	return func(rc *runConfig) {
		switch m {
		case CINormal:
			rc.cfg.Bound = core.BoundNormal
		case CIHoeffding:
			rc.cfg.Bound = core.BoundHoeffding
		case CIBootstrap:
			rc.cfg.Bound = core.BoundBootstrap
		case CIClopperPearson:
			rc.cfg.Bound = core.BoundClopperPearson
		}
	}
}

func buildConfig(opts []Option) runConfig {
	rc := runConfig{cfg: core.DefaultSUPG(), seed: 1}
	for _, o := range opts {
		o(&rc)
	}
	return rc
}

// coreSpec lowers a public Query onto the internal spec. An unknown
// Kind yields a spec whose Gamma is zeroed so Validate rejects it.
func coreSpec(q Query) core.Spec {
	spec := core.Spec{
		Gamma:  q.Target,
		Delta:  1 - q.Probability,
		Budget: q.OracleLimit,
	}
	switch q.Kind {
	case RecallQuery:
		spec.Kind = core.RecallTarget
	case PrecisionQuery:
		spec.Kind = core.PrecisionTarget
	default:
		spec.Gamma = 0
	}
	return spec
}

// Run executes a SUPG query over the proxy-score column using the
// oracle, honoring q.OracleLimit, and returns a set meeting the target
// with probability at least q.Probability.
func Run(scores []float64, o Oracle, q Query, opts ...Option) (*Result, error) {
	if q.Kind != RecallQuery && q.Kind != PrecisionQuery {
		return nil, fmt.Errorf("supg: unknown query kind %d", int(q.Kind))
	}
	rc := buildConfig(opts)
	res, err := core.SelectFromContextOptions(context.Background(), randx.New(rc.seed), core.NewRawSource(scores), o, coreSpec(q), rc.cfg, core.SelectOptions{})
	if err != nil {
		return nil, err
	}
	return &Result{Indices: res.Indices, Tau: res.Tau, OracleCalls: res.OracleCalls}, nil
}

// RunJoint executes a joint recall+precision query (unbounded oracle).
// The returned set contains only oracle-verified positives, so its
// precision is 1 and its recall meets the target with probability at
// least q.Probability.
func RunJoint(scores []float64, o Oracle, q JointQuery, opts ...Option) (*Result, error) {
	rc := buildConfig(opts)
	spec := core.JointSpec{
		GammaRecall:    q.RecallTarget,
		GammaPrecision: q.PrecisionTarget,
		Delta:          1 - q.Probability,
		StageBudget:    q.StageBudget,
	}
	res, err := core.SelectJointFromContextOptions(context.Background(), randx.New(rc.seed), core.NewRawSource(scores), o, spec, rc.cfg, core.SelectOptions{})
	if err != nil {
		return nil, err
	}
	return &Result{Indices: res.Indices, Tau: res.Tau, OracleCalls: res.OracleCalls}, nil
}
