// Package core implements the SUPG threshold-estimation and selection
// algorithms from "Approximate Selection with Guarantees using Proxies"
// (Kang et al., PVLDB 2020):
//
//   - U-NoCI   — the no-guarantee baselines used by prior systems
//     (NoScope, probabilistic predicates): pick the empirical cutoff.
//   - U-CI     — uniform sampling with confidence intervals
//     (Algorithms 2 and 3).
//   - IS-CI    — importance sampling with sqrt-proxy weights and
//     defensive mixing (Algorithms 4 and 5; 5 is two-stage). This is
//     the SUPG method.
//   - Joint    — the appendix algorithm satisfying recall and precision
//     targets simultaneously with an unbounded oracle.
//
// All estimators consume a proxy-score column, an oracle, and a Spec,
// and produce a proxy threshold tau such that returning
// R = {labeled positives} ∪ {x : A(x) >= tau} meets the target metric
// with probability at least 1-delta (for the CI methods).
package core

import (
	"errors"
	"fmt"
	"math"
)

// TargetKind distinguishes recall-target (RT) from precision-target (PT)
// queries.
type TargetKind int

const (
	// RecallTarget queries guarantee Recall(R) >= Gamma.
	RecallTarget TargetKind = iota
	// PrecisionTarget queries guarantee Precision(R) >= Gamma.
	PrecisionTarget
)

// String implements fmt.Stringer.
func (k TargetKind) String() string {
	switch k {
	case RecallTarget:
		return "recall"
	case PrecisionTarget:
		return "precision"
	}
	return fmt.Sprintf("TargetKind(%d)", int(k))
}

// Spec is a SUPG query specification: the target metric and level, the
// failure probability, and the oracle budget (Figure 3's clauses).
type Spec struct {
	Kind   TargetKind
	Gamma  float64 // target recall or precision, in (0, 1]
	Delta  float64 // failure probability, in (0, 1)
	Budget int     // oracle call budget s
}

// Validate reports whether the spec is well-formed.
func (s Spec) Validate() error {
	if s.Gamma <= 0 || s.Gamma > 1 {
		return fmt.Errorf("core: target %g outside (0, 1]", s.Gamma)
	}
	if s.Delta <= 0 || s.Delta >= 1 {
		return fmt.Errorf("core: failure probability %g outside (0, 1)", s.Delta)
	}
	if s.Budget < 2 {
		return fmt.Errorf("core: oracle budget %d too small (need >= 2)", s.Budget)
	}
	return nil
}

// Method identifies a threshold-estimation algorithm family.
type Method int

const (
	// MethodUNoCI is uniform sampling without confidence intervals —
	// the empirical-cutoff strategy of prior work; no guarantees.
	MethodUNoCI Method = iota
	// MethodUCI is uniform sampling with confidence intervals
	// (Algorithms 2 and 3).
	MethodUCI
	// MethodISCI is importance sampling with confidence intervals
	// (Algorithms 4 and 5) — the SUPG method.
	MethodISCI
	// MethodFinite is uniform sampling with certificates that hold at
	// every sample size rather than asymptotically: an exact
	// order-statistics construction for recall targets and
	// Clopper-Pearson-certified candidates (Algorithm 3) for precision
	// targets, whatever Bound says. This extends the paper, which
	// analyzes only the asymptotic regime; results are more
	// conservative (lower quality) than the CLT-based estimators.
	MethodFinite
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodUNoCI:
		return "U-NoCI"
	case MethodUCI:
		return "U-CI"
	case MethodISCI:
		return "IS-CI"
	case MethodFinite:
		return "finite-sample"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// BoundKind selects the confidence-interval construction (Figure 13).
type BoundKind int

const (
	// BoundNormal is the paper's default Lemma 1 normal approximation.
	BoundNormal BoundKind = iota
	// BoundHoeffding is the distribution-free Hoeffding inequality.
	BoundHoeffding
	// BoundBootstrap is the percentile bootstrap.
	BoundBootstrap
	// BoundClopperPearson is the exact binomial interval; valid only for
	// uniform sampling of binary outcomes (U-CI). An IS-CI query that
	// selects it fails with an error.
	BoundClopperPearson
)

// String implements fmt.Stringer.
func (b BoundKind) String() string {
	switch b {
	case BoundNormal:
		return "normal"
	case BoundHoeffding:
		return "hoeffding"
	case BoundBootstrap:
		return "bootstrap"
	case BoundClopperPearson:
		return "clopper-pearson"
	}
	return fmt.Sprintf("BoundKind(%d)", int(b))
}

// Config selects and parameterizes an estimation algorithm. The zero
// value is not useful; start from DefaultSUPG, DefaultUCI, DefaultUNoCI
// or DefaultFinite and adjust.
type Config struct {
	Method Method
	// TwoStage enables the Algorithm 5 two-stage sampling for
	// precision-target IS-CI queries. Ignored otherwise.
	TwoStage bool
	// WeightExponent is the power applied to proxy scores when forming
	// importance weights. The paper proves 0.5 optimal for calibrated
	// proxies (Theorem 1); 0 degenerates to uniform and 1 to
	// proportional sampling.
	WeightExponent float64
	// Mix is the defensive uniform-mixing ratio in [0,1) guarding
	// against adversarial proxies (Owen & Zhou); the paper uses 0.1.
	Mix float64
	// MinStep is the candidate-threshold stride m for PT queries
	// (Algorithms 3/5); the paper uses 100.
	MinStep int
	// Bound selects the CI construction; BoundNormal is the default.
	// MethodFinite ignores it.
	Bound BoundKind
}

// DefaultFinite returns the finite-sample configuration: uniform
// sampling with non-asymptotic certificates.
func DefaultFinite() Config {
	return Config{Method: MethodFinite, MinStep: 100}
}

// DefaultSUPG returns the paper's recommended configuration: importance
// sampling with sqrt weights, 0.1 defensive mixing, two-stage PT
// estimation, and normal-approximation bounds.
func DefaultSUPG() Config {
	return Config{
		Method:         MethodISCI,
		TwoStage:       true,
		WeightExponent: 0.5,
		Mix:            0.1,
		MinStep:        100,
		Bound:          BoundNormal,
	}
}

// DefaultUCI returns the uniform-sampling-with-guarantees baseline.
func DefaultUCI() Config {
	return Config{Method: MethodUCI, MinStep: 100, Bound: BoundNormal}
}

// DefaultUNoCI returns the prior-work baseline without guarantees.
func DefaultUNoCI() Config {
	return Config{Method: MethodUNoCI, MinStep: 100}
}

// normalize fills an unset MinStep with the paper's 100. Every other
// field is taken as given: an IS config with WeightExponent 0 samples
// uniformly, whatever its Mix.
func (c Config) normalize() Config {
	if c.MinStep <= 0 {
		c.MinStep = 100
	}
	return c
}

// Result is a complete SUPG query answer (Algorithm 1's R1 ∪ R2).
type Result struct {
	// Indices is the sorted set of returned record indices: the answer
	// (Tau, Extra) listed. SelectBudgeted leaves it nil, and the entry
	// points that return a Result (SelectFromContextOptions,
	// multiproxy.Select) fill it through Answer.List.
	Indices []int
	// Tau is the proxy threshold used for the R2 component.
	Tau float64
	// Extra is the part of R1 the threshold does not cover: the labeled
	// positives scoring below Tau (all of them when Tau is +Inf),
	// ascending. With Tau it describes the whole returned set (Answer).
	Extra []int
	// OracleCalls is the number of budget-consuming oracle calls made.
	OracleCalls int
	// SampledPositives is the number of returned records that came from
	// oracle labels (the R1 component) rather than the threshold.
	SampledPositives int
	// CachedLabels is the number of labels served from the cross-query
	// label store instead of the inner oracle (0 without a store). In
	// charged mode these still count in OracleCalls.
	CachedLabels int
}

// Answer returns the result's returned set in compact form.
func (r Result) Answer() Answer { return Answer{Tau: r.Tau, Extra: r.Extra} }

// ErrNoPositives is returned by recall-target estimation when the
// sample contains no positive labels, in which case no data-driven
// threshold exists. SelectBudgeted treats it by returning the whole
// dataset (the only recall-safe answer).
var ErrNoPositives = errors.New("core: no positive oracle labels in sample")

// selectAllTau is the threshold that admits every record.
const selectAllTau = 0.0

// noSelectionTau admits no records (R2 empty).
func noSelectionTau() float64 { return math.Inf(1) }
