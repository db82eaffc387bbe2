package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"supg/internal/oracle"
	"supg/internal/randx"
)

// EstimateTau dispatches to the configured threshold-estimation
// algorithm (the SampleOracle + EstimateTau stages of Algorithm 1) over
// a plain score slice. The oracle must already be budget-wrapped;
// estimators never exceed spec.Budget draws.
func EstimateTau(r *randx.Rand, scores []float64, o *oracle.Budgeted, spec Spec, cfg Config) (TauResult, error) {
	// nil arena: the returned TauResult (Labeled map included) escapes
	// to the caller, so every buffer must be freshly owned.
	return estimateTau(r, newRawSource(scores), o, spec, cfg, nil)
}

// estimateTau is the arena-threaded dispatch behind EstimateTau and
// every Select entry point.
// With a non-nil arena the TauResult's Labeled map and any scratch are
// arena-owned and die when the calling Select releases it.
func estimateTau(r *randx.Rand, src ScoreSource, o *oracle.Budgeted, spec Spec, cfg Config, ar *arena) (TauResult, error) {
	if err := spec.Validate(); err != nil {
		return TauResult{}, err
	}
	if src.Len() == 0 {
		return TauResult{}, fmt.Errorf("core: empty dataset")
	}
	cfg = cfg.normalize()

	if cfg.FiniteSample {
		if spec.Kind == RecallTarget {
			return estimateFiniteRecall(r, src, o, spec, ar)
		}
		// Precision targets: Algorithm 3 with exact Clopper-Pearson
		// certificates is finite-sample valid under uniform sampling.
		cfg.Method = MethodUCI
		cfg.Bound = BoundClopperPearson
		return estimateUCIPrecision(r, src, o, spec, cfg, ar)
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
	}
	return TauResult{}, fmt.Errorf("core: unknown method %v", cfg.Method)
}

// Select answers a SUPG query end to end (Algorithm 1) over a plain
// score slice: it wraps the oracle with the budget, estimates tau, and
// returns R = R1 ∪ R2 = {labeled positives} ∪ {x : A(x) >= tau}.
//
// For recall-target queries whose sample surfaces no positives, the
// only recall-safe answer is the full dataset, which Select returns
// (the query stays valid; its quality is the degenerate minimum).
func Select(r *randx.Rand, scores []float64, orc oracle.Oracle, spec Spec, cfg Config) (Result, error) {
	return SelectFrom(r, newRawSource(scores), orc, spec, cfg)
}

// SelectFrom is Select over any ScoreSource — the entry point of the
// indexed hot path. For a fixed random stream it returns exactly the
// records the raw-slice path returns.
func SelectFrom(r *randx.Rand, src ScoreSource, orc oracle.Oracle, spec Spec, cfg Config) (Result, error) {
	return SelectFromContextOptions(context.Background(), r, src, orc, spec, cfg, SelectOptions{})
}

// SelectOptions carries execution-environment tuning orthogonal to the
// algorithm Config: the cross-query label store tier and its charging
// mode. The zero value runs without a store, exactly as SelectFrom
// does.
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

// SelectFromContextOptions is SelectFrom with cancellation and a
// label-store tier. Once ctx is done the query stops consuming oracle
// budget and returns ctx's error. When orc implements
// oracle.BatchOracle (e.g. an oracle.Dispatcher), each round of sampled
// draws is labeled through one batch call, overlapping slow oracle
// latency; results are bit-for-bit identical to the sequential path for
// the same random stream. In charged mode (the default) the result —
// Indices, Tau, and OracleCalls — is byte-identical to a storeless run;
// only Result.CachedLabels and the inner oracle's call count differ.
func SelectFromContextOptions(ctx context.Context, r *randx.Rand, src ScoreSource, orc oracle.Oracle, spec Spec, cfg Config, sopts SelectOptions) (Result, error) {
	budgeted := oracle.NewBudgeted(orc, spec.Budget).WithContext(ctx).
		WithStore(sopts.Store, sopts.FreeReuse).WithChargeHook(sopts.OnCachedCharge)
	ar := acquireArena()
	defer ar.release()
	tr, err := estimateTau(r, src, budgeted, spec, cfg, ar)
	if err != nil && !errors.Is(err, ErrNoPositives) {
		// An unavailable oracle surfaces with the labels-folded-so-far
		// count: the budget units already consumed are durable (memoized,
		// and persisted when a label store is attached), so a retry of the
		// query resumes warm rather than from zero.
		oracle.NoteLabelsFolded(err, budgeted.Used())
		return Result{}, err
	}
	if errors.Is(err, ErrNoPositives) && spec.Kind == PrecisionTarget {
		// No positives sampled: returning labeled positives only (an
		// empty R1) is the valid PT answer.
		tr.Tau = noSelectionTau()
	}
	res := assembleFrom(src, tr, ar)
	res.CachedLabels = budgeted.StoreHits()
	return res, nil
}

// assemble constructs Algorithm 1's R1 ∪ R2 from a threshold estimate
// over a plain score slice.
func assemble(scores []float64, tr TauResult) Result {
	return assembleFrom(newRawSource(scores), tr, nil)
}

// assembleFrom merges the presorted threshold suffix R2 with the
// (tiny, sorted) list of labeled positives R1. Unlike the historical
// map-plus-full-sort construction this allocates only the result slice
// and the positive list: R2 arrives in ascending id order from the
// source, and the R1 records below the threshold are folded in with a
// single backward merge. The positive list is arena scratch; only the
// result slice (Result.Indices) is a true heap allocation.
func assembleFrom(src ScoreSource, tr TauResult, ar *arena) Result {
	scores := src.Scores()

	// R1: labeled positives, ascending by id.
	pos := ar.intCap(len(tr.Labeled))
	for i, lab := range tr.Labeled { //supg:nondeterminism-ok builds a set of positives; order is restored by the sort below
		if lab {
			pos = append(pos, i)
		}
	}
	slices.Sort(pos)

	noThreshold := math.IsInf(tr.Tau, 1)

	// Keep only the positives the threshold does not already cover —
	// these are also exactly the "sampled only" records reported in
	// Result.SampledPositives.
	extra := pos[:0]
	for _, i := range pos {
		if noThreshold || !(scores[i] >= tr.Tau) {
			extra = append(extra, i)
		}
	}

	if noThreshold {
		// extra is arena scratch; the escaping Indices need their own
		// memory.
		return Result{
			Indices:          append(make([]int, 0, len(extra)), extra...),
			Tau:              tr.Tau,
			OracleCalls:      tr.OracleCalls,
			SampledPositives: len(extra),
		}
	}

	out := make([]int, 0, src.CountAtLeast(tr.Tau)+len(extra))
	out = src.AppendAtLeast(out, tr.Tau)
	k := len(out)
	onlySample := len(extra)
	if onlySample > 0 {
		// Backward merge of the two ascending runs; extra does not
		// alias out, so overwriting out from the tail is safe.
		out = append(out, extra...)
		i, j := k-1, onlySample-1
		for w := len(out) - 1; j >= 0; w-- {
			if i >= 0 && out[i] > extra[j] {
				out[w] = out[i]
				i--
			} else {
				out[w] = extra[j]
				j--
			}
		}
	}
	return Result{
		Indices:          out,
		Tau:              tr.Tau,
		OracleCalls:      tr.OracleCalls,
		SampledPositives: onlySample,
	}
}
