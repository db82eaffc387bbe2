package oracle

import (
	"context"
	"fmt"
	"sync"
	"time"

	"supg/internal/metrics"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes every call through (healthy backend).
	BreakerClosed BreakerState = iota
	// BreakerOpen fails every call fast without touching the backend.
	BreakerOpen
	// BreakerHalfOpen lets a single probe through; everyone else fails
	// fast until the probe reports.
	BreakerHalfOpen
)

// String names the state for diagnostics and stats.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Outcome is what a breaker-guarded call reports back.
type Outcome int

const (
	// OutcomeSuccess: the backend answered. Resets the failure streak;
	// closes a half-open breaker.
	OutcomeSuccess Outcome = iota
	// OutcomeFailure: the backend is unusable even after retries. Counts
	// toward the open threshold; re-opens a half-open breaker.
	OutcomeFailure
	// OutcomeSkip: the call says nothing about backend health (query
	// cancelled, permanent application error). No state change beyond
	// releasing a half-open probe slot.
	OutcomeSkip
)

// DefaultBreakerCooldown is how long an open breaker refuses calls when
// BreakerOptions.Cooldown is unset.
const DefaultBreakerCooldown = time.Second

// BreakerOptions tune a Breaker. The zero value selects the defaults
// noted on each field.
type BreakerOptions struct {
	// Threshold is the number of consecutive failed calls (transient
	// failures that exhausted their retries) that trips the breaker
	// open (default 5).
	Threshold int
	// Cooldown is how long an open breaker refuses calls before
	// half-opening for a probe (default DefaultBreakerCooldown).
	Cooldown time.Duration
	// Clock overrides the time source (nil = real time).
	Clock Clock
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.Threshold <= 0 {
		o.Threshold = 5
	}
	if o.Cooldown <= 0 {
		o.Cooldown = DefaultBreakerCooldown
	}
	o.Clock = clockOrReal(o.Clock)
	return o
}

// Breaker is a circuit breaker shared by every query hitting one
// oracle backend: closed → open after Threshold consecutive failures,
// open → half-open after Cooldown, half-open → closed on a successful
// probe (or back to open on a failed one). All methods are
// goroutine-safe and nil-safe — a nil *Breaker allows everything.
//
// The breaker observes final outcomes, not attempts: a call that
// failed twice and then succeeded under retry reports one success.
// That keeps "open" meaning "unusable even with retries", and keeps
// breaker state deterministic for workloads whose calls all eventually
// succeed.
type Breaker struct {
	opts BreakerOptions

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
}

// NewBreaker returns a closed breaker.
func NewBreaker(opts BreakerOptions) *Breaker {
	return &Breaker{opts: opts.withDefaults()}
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow asks permission for one call. On nil error the caller must
// invoke the returned report with the call's Outcome exactly once; on
// ErrBreakerOpen the call was refused and there is nothing to report.
func (b *Breaker) Allow() (report func(Outcome), err error) {
	if b == nil {
		return func(Outcome) {}, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return b.reportClosed, nil
	case BreakerOpen:
		if b.opts.Clock.Now().Sub(b.openedAt) < b.opts.Cooldown {
			return nil, fmt.Errorf("%w (cooldown %v)", ErrBreakerOpen, b.opts.Cooldown)
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return b.reportProbe, nil
	default: // BreakerHalfOpen
		if b.probing {
			return nil, fmt.Errorf("%w (probe in flight)", ErrBreakerOpen)
		}
		b.probing = true
		return b.reportProbe, nil
	}
}

// reportClosed folds a closed-state call's outcome into the failure
// streak. If another goroutine already tripped the breaker, the report
// is a no-op — the streak belongs to the closed state.
func (b *Breaker) reportClosed(o Outcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerClosed {
		return
	}
	switch o {
	case OutcomeSuccess:
		b.failures = 0
	case OutcomeFailure:
		b.failures++
		if b.failures >= b.opts.Threshold {
			b.state = BreakerOpen
			b.openedAt = b.opts.Clock.Now()
		}
	}
}

// reportProbe folds the half-open probe's outcome: success closes the
// breaker, failure re-opens it (restarting the cooldown), and a skip
// frees the probe slot for the next caller.
func (b *Breaker) reportProbe(o Outcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerHalfOpen {
		return
	}
	b.probing = false
	switch o {
	case OutcomeSuccess:
		b.state = BreakerClosed
		b.failures = 0
	case OutcomeFailure:
		b.state = BreakerOpen
		b.openedAt = b.opts.Clock.Now()
	}
}

// ResilientOptions tune a Resilient oracle wrapper. The zero value
// performs one attempt per call with no timeout — indistinguishable
// from the raw oracle.
type ResilientOptions struct {
	// Timeout bounds one attempt's wall-clock time (0 = unbounded). A
	// timed-out attempt counts as a transient failure; the abandoned
	// UDF call keeps running in its goroutine and its eventual result
	// is discarded, so the inner oracle must be goroutine-safe when a
	// timeout is configured.
	Timeout time.Duration
	// Retries is how many times a transient failure is re-attempted
	// after the first try (0 = fail on first error).
	Retries int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it (default 10ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 2s).
	MaxBackoff time.Duration
	// Seed derives the deterministic backoff jitter. The jitter for a
	// given (seed, record, attempt) is a pure function — independent of
	// goroutine interleaving — so a replayed query sleeps the exact
	// same schedule.
	Seed uint64
	// Clock overrides the time source (nil = real time).
	Clock Clock
}

// Enabled reports whether the options ask for any resilience behavior
// beyond a raw call.
func (o ResilientOptions) Enabled() bool {
	return o.Timeout > 0 || o.Retries > 0
}

func (o ResilientOptions) baseBackoff() time.Duration {
	if o.BaseBackoff <= 0 {
		return 10 * time.Millisecond
	}
	return o.BaseBackoff
}

func (o ResilientOptions) maxBackoff() time.Duration {
	if o.MaxBackoff <= 0 {
		return 2 * time.Second
	}
	return o.MaxBackoff
}

// Resilient wraps an oracle with per-attempt timeouts, bounded retries
// with exponential backoff and deterministic jitter, and an optional
// shared circuit breaker. It is created per query (it carries the
// query's context and jitter seed) while the breaker is shared across
// queries of the same backend.
//
// Resilience never changes results: labels are a pure function of the
// record index, so a call that eventually succeeds yields exactly the
// label a fault-free run yields, and the budget wrapper above never
// sees the retried attempts. Sitting below the Dispatcher, a mid-batch
// transient failure is retried for the failing index alone — the other
// in-flight indices are unaffected.
type Resilient struct {
	inner    Oracle
	opts     ResilientOptions
	breaker  *Breaker
	ctx      context.Context
	counters *metrics.Counters
	clock    Clock
}

// NewResilient wraps inner with the given resilience policy.
func NewResilient(inner Oracle, opts ResilientOptions) *Resilient {
	return &Resilient{inner: inner, opts: opts, clock: clockOrReal(opts.Clock)}
}

// WithBreaker attaches a shared circuit breaker (nil = none). Returns
// r for chaining.
func (r *Resilient) WithBreaker(b *Breaker) *Resilient {
	r.breaker = b
	return r
}

// WithContext attaches the query's cancellation context: backoff
// sleeps and in-flight attempts abort when it is done. Returns r for
// chaining.
func (r *Resilient) WithContext(ctx context.Context) *Resilient {
	r.ctx = ctx
	return r
}

// WithCounters records retry and timeout activity in the service
// counters. Returns r for chaining.
func (r *Resilient) WithCounters(c *metrics.Counters) *Resilient {
	r.counters = c
	return r
}

func (r *Resilient) context() context.Context {
	if r.ctx == nil {
		return context.Background()
	}
	return r.ctx
}

// Label implements Oracle: one breaker-guarded call with up to
// opts.Retries re-attempts of transient failures. Exhausted retries
// and a refused (breaker-open) call return a typed *UnavailableError
// matching ErrOracleUnavailable.
func (r *Resilient) Label(i int) (bool, error) {
	report, err := r.breaker.Allow()
	if err != nil {
		return false, &UnavailableError{Cause: err}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		v, err := r.attempt(i)
		if err == nil {
			report(OutcomeSuccess)
			return v, nil
		}
		switch Classify(err) {
		case ClassCancelled:
			report(OutcomeSkip)
			return false, err
		case ClassPermanent:
			report(OutcomeSkip)
			return false, err
		}
		lastErr = err
		if attempt >= r.opts.Retries {
			report(OutcomeFailure)
			return false, &UnavailableError{
				Cause: fmt.Errorf("record %d failed %d attempt(s): %w", i, attempt+1, lastErr),
			}
		}
		r.counters.OracleRetries(1)
		if serr := r.clock.Sleep(r.context(), r.backoff(i, attempt)); serr != nil {
			report(OutcomeSkip)
			return false, fmt.Errorf("oracle: %w", serr)
		}
	}
}

// attempt performs one timeout-bounded call of the inner oracle.
func (r *Resilient) attempt(i int) (bool, error) {
	ctx := r.context()
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if r.opts.Timeout <= 0 {
		return r.inner.Label(i)
	}
	type outcome struct {
		v   bool
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := r.inner.Label(i)
		ch <- outcome{v, err}
	}()
	timer, stop := r.clock.Timer(r.opts.Timeout)
	defer stop()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-timer:
		r.counters.OracleTimeouts(1)
		return false, Transient(fmt.Errorf("attempt on record %d timed out after %v", i, r.opts.Timeout))
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// backoff computes the delay before retry number attempt of record i:
// exponential growth from BaseBackoff capped at MaxBackoff, scaled by
// a deterministic jitter factor in [0.5, 1.0) derived from (Seed, i,
// attempt) — a pure function, so replays sleep byte-identical
// schedules regardless of goroutine interleaving.
func (r *Resilient) backoff(i, attempt int) time.Duration {
	d := r.opts.baseBackoff()
	max := r.opts.maxBackoff()
	for a := 0; a < attempt && d < max; a++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	u := jitterFloat(r.opts.Seed, uint64(i), uint64(attempt))
	return time.Duration(float64(d) * (0.5 + 0.5*u))
}

// jitterFloat hashes (seed, record, attempt) to a uniform float in
// [0, 1) with the SplitMix64 finalizer.
func jitterFloat(seed, record, attempt uint64) float64 {
	h := mix64(seed ^ mix64(record+0x9e3779b97f4a7c15) ^ mix64(attempt+0xbf58476d1ce4e5b9))
	return float64(h>>11) / (1 << 53)
}

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
