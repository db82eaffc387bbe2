package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"supg/internal/oracle"
	"supg/internal/randx"
)

// estimateTau dispatches to the configured threshold-estimation
// algorithm (the SampleOracle + EstimateTau stages of Algorithm 1) over
// src. The oracle must already be budget-wrapped; estimators never
// exceed spec.Budget draws, and every label they draw lands in o's
// memo. Scratch comes from ar and dies when the calling select releases
// it.
func estimateTau(r *randx.Rand, src ScoreSource, o *oracle.Budgeted, spec Spec, cfg Config, ar *arena) (float64, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	if src.Len() == 0 {
		return 0, fmt.Errorf("core: empty dataset")
	}
	cfg = cfg.normalize()
	if cfg.Method == MethodISCI && cfg.Bound == BoundClopperPearson {
		// The exact binomial interval needs 0/1 samples; IS-CI bounds
		// reweighted ones.
		return 0, fmt.Errorf("core: the Clopper-Pearson bound applies to uniform sampling only, not to %v", cfg.Method)
	}

	switch cfg.Method {
	case MethodUNoCI:
		if spec.Kind == RecallTarget {
			return estimateUNoCIRecall(r, src, o, spec, ar)
		}
		return estimateUNoCIPrecision(r, src, o, spec, ar)
	case MethodUCI:
		if spec.Kind == RecallTarget {
			return estimateUCIRecall(r, src, o, spec, cfg, ar)
		}
		return estimateUCIPrecision(r, src, o, spec, cfg, ar)
	case MethodISCI:
		if spec.Kind == RecallTarget {
			return estimateISRecall(r, src, o, spec, cfg, ar)
		}
		return estimateISPrecision(r, src, o, spec, cfg, ar)
	case MethodFinite:
		if spec.Kind == RecallTarget {
			return estimateFiniteRecall(r, src, o, spec, ar)
		}
		// Precision targets: Algorithm 3 with exact Clopper-Pearson
		// certificates is finite-sample valid under uniform sampling.
		cfg.Bound = BoundClopperPearson
		return estimateUCIPrecision(r, src, o, spec, cfg, ar)
	}
	return 0, fmt.Errorf("core: unknown method %v", cfg.Method)
}

// SelectOptions carries execution-environment tuning orthogonal to the
// algorithm Config: the cross-query label store tier and its charging
// mode. The zero value runs without a store.
type SelectOptions struct {
	// Store is a shared label cache consulted before the oracle and
	// extended with every fresh label (nil = none).
	Store oracle.LabelCache
	// FreeReuse makes store hits free instead of budget-charged. The
	// default (charged) mode keeps warm results byte-identical to cold
	// runs; free reuse stretches the effective sample size instead.
	FreeReuse bool
	// OnCachedCharge, when non-nil, is notified each time charged store
	// hits consume budget (n units at a time), so progress accounting
	// that counts real oracle invocations can stay equal to the
	// budget-consumption total.
	OnCachedCharge func(n int)
}

// SelectFromContextOptions answers a SUPG query end to end
// (Algorithm 1) over src: it wraps the oracle with the budget and
// returns SelectBudgeted's answer over that wrapper, listed into
// Indices (Answer.List). For a fixed random stream an index.ScoreIndex
// and NewRawSource over the same column return exactly the same
// records.
//
// Once ctx is done the query stops consuming oracle budget and returns
// ctx's error. When orc implements oracle.BatchOracle (e.g. an
// oracle.Dispatcher), each round of sampled draws is labeled through
// one batch call, overlapping slow oracle latency; results are
// bit-for-bit identical to the sequential path for the same random
// stream. In charged mode (the default) the result — Indices, Tau, and
// OracleCalls — is byte-identical to a storeless run; only
// Result.CachedLabels and the inner oracle's call count differ.
func SelectFromContextOptions(ctx context.Context, r *randx.Rand, src ScoreSource, orc oracle.Oracle, spec Spec, cfg Config, sopts SelectOptions) (Result, error) {
	budgeted := oracle.NewBudgeted(orc, spec.Budget).WithContext(ctx).
		WithStore(sopts.Store, sopts.FreeReuse).WithChargeHook(sopts.OnCachedCharge)
	res, err := SelectBudgeted(r, src, budgeted, spec, cfg)
	if err != nil {
		// An unavailable oracle surfaces with the labels-folded-so-far
		// count: the budget units already consumed are durable (memoized,
		// and persisted when a label store is attached), so a retry of the
		// query resumes warm rather than from zero.
		oracle.NoteLabelsFolded(err, budgeted.Used())
		return res, err
	}
	res.Indices = res.Answer().List(src)
	return res, nil
}

// SelectBudgeted runs Algorithm 1 over a budget wrapper the caller
// owns: it estimates tau with the configured estimator, drawing every
// label through b, and returns R = R1 ∪ R2 = {records b labeled
// positive} ∪ {x : A(x) >= tau} in compact form, as tau and Extra, the
// positives below it (see Answer); it leaves Indices nil. R1 therefore
// includes any positive b labeled before the call. When the sample
// surfaces no positives, a recall target keeps the estimator's
// select-all tau — the full dataset is the only recall-safe answer —
// and a precision target answers +Inf, returning the labeled positives
// alone. OracleCalls and CachedLabels report b's totals.
func SelectBudgeted(r *randx.Rand, src ScoreSource, b *oracle.Budgeted, spec Spec, cfg Config) (Result, error) {
	ar := acquireArena()
	defer ar.release()
	tau, err := estimateTau(r, src, b, spec, cfg, ar)
	if err != nil && !errors.Is(err, ErrNoPositives) {
		return Result{}, err
	}
	if err != nil && spec.Kind == PrecisionTarget {
		tau = noSelectionTau()
	}
	return assembleFrom(src, tau, b, ar), nil
}

// assembleFrom assembles R1 ∪ R2 in compact form: tau, and the
// (tiny, sorted) part of b's labeled positives R1 the threshold
// suffix R2 does not already cover.
func assembleFrom(src ScoreSource, tau float64, b *oracle.Budgeted, ar *arena) Result {
	scores := src.Scores()

	// R1: labeled positives, ascending by id. In charged mode each memo
	// entry consumed a budget unit, so Used() bounds their number.
	pos := b.AppendLabeledPositives(ar.intCap(b.Used()))

	noThreshold := math.IsInf(tau, 1)

	// Keep only the positives the threshold does not already cover —
	// these are also exactly the "sampled only" records reported in
	// Result.SampledPositives.
	extra := pos[:0]
	for _, i := range pos {
		if noThreshold || !(scores[i] >= tau) {
			extra = append(extra, i)
		}
	}
	return Result{
		Tau: tau,
		// extra is arena scratch; the escaping Extra needs its own
		// memory.
		Extra:            append(make([]int, 0, len(extra)), extra...),
		OracleCalls:      b.Used(),
		SampledPositives: len(extra),
		CachedLabels:     b.StoreHits(),
	}
}
