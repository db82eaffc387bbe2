package oracle

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"supg/internal/metrics"
)

func TestClassify(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"unmarked defaults to transient", base, ClassTransient},
		{"explicit transient", Transient(base), ClassTransient},
		{"explicit permanent", Permanent(base), ClassPermanent},
		{"wrapped permanent", fmt.Errorf("outer: %w", Permanent(base)), ClassPermanent},
		{"context cancelled", context.Canceled, ClassCancelled},
		{"deadline exceeded", fmt.Errorf("x: %w", context.DeadlineExceeded), ClassCancelled},
		{"budget exhausted is permanent", ErrBudgetExhausted, ClassPermanent},
		{"marker wins over context", Transient(context.Canceled), ClassTransient},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
	if Transient(nil) != nil || Permanent(nil) != nil {
		t.Fatal("markers must pass nil through")
	}
}

func TestUnavailableError(t *testing.T) {
	cause := errors.New("connection refused")
	err := error(&UnavailableError{Cause: cause})
	if !errors.Is(err, ErrOracleUnavailable) {
		t.Fatal("UnavailableError must match ErrOracleUnavailable")
	}
	if !errors.Is(err, cause) {
		t.Fatal("UnavailableError must unwrap to its cause")
	}
	wrapped := fmt.Errorf("query: %w", err)
	NoteLabelsFolded(wrapped, 42)
	var ue *UnavailableError
	if !errors.As(wrapped, &ue) || ue.LabelsFolded != 42 {
		t.Fatalf("LabelsFolded = %d, want 42", ue.LabelsFolded)
	}
	// A second note must not overwrite the first.
	NoteLabelsFolded(wrapped, 7)
	if ue.LabelsFolded != 42 {
		t.Fatalf("LabelsFolded overwritten to %d", ue.LabelsFolded)
	}
	// No UnavailableError in the chain: a silent no-op.
	NoteLabelsFolded(errors.New("other"), 3)
}

// scriptedOracle fails each record a scripted number of times before
// succeeding, and records every attempt.
type scriptedOracle struct {
	mu       sync.Mutex
	failN    int
	attempts map[int]int
	err      error // error to return while failing (default: plain transient)
}

func (s *scriptedOracle) Label(i int) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attempts == nil {
		s.attempts = make(map[int]int)
	}
	s.attempts[i]++
	if s.attempts[i] <= s.failN {
		if s.err != nil {
			return false, s.err
		}
		return false, Transient(errors.New("scripted failure"))
	}
	return true, nil
}

func (s *scriptedOracle) attemptCount(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempts[i]
}

func TestResilientRetriesTransientFailures(t *testing.T) {
	inner := &scriptedOracle{failN: 2}
	var c metrics.Counters
	r := NewResilient(inner, ResilientOptions{
		Retries:     3,
		BaseBackoff: time.Nanosecond,
		Seed:        1,
	}).WithCounters(&c)
	v, err := r.Label(5)
	if err != nil || !v {
		t.Fatalf("Label = %v, %v; want true after retries", v, err)
	}
	if got := inner.attemptCount(5); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if got := c.Snapshot().OracleRetries; got != 2 {
		t.Fatalf("oracle_retries = %d, want 2", got)
	}
}

func TestResilientExhaustedRetriesReturnUnavailable(t *testing.T) {
	inner := &scriptedOracle{failN: 100}
	r := NewResilient(inner, ResilientOptions{Retries: 2, BaseBackoff: time.Nanosecond})
	_, err := r.Label(9)
	if !errors.Is(err, ErrOracleUnavailable) {
		t.Fatalf("err = %v, want ErrOracleUnavailable", err)
	}
	if got := inner.attemptCount(9); got != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", got)
	}
}

func TestResilientPermanentFailsImmediately(t *testing.T) {
	inner := &scriptedOracle{failN: 100, err: Permanent(errors.New("record out of range"))}
	b := NewBreaker(BreakerOptions{Threshold: 1})
	r := NewResilient(inner, ResilientOptions{Retries: 5, BaseBackoff: time.Nanosecond}).WithBreaker(b)
	_, err := r.Label(1)
	if err == nil || errors.Is(err, ErrOracleUnavailable) {
		t.Fatalf("err = %v, want raw permanent error", err)
	}
	if got := inner.attemptCount(1); got != 1 {
		t.Fatalf("attempts = %d, want 1 (no retries on permanent)", got)
	}
	// Permanent errors are skips: the backend answered, so even a
	// threshold-1 breaker stays closed.
	if b.State() != BreakerClosed {
		t.Fatalf("breaker %v, want closed", b.State())
	}
}

func TestResilientCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inner := &scriptedOracle{failN: 0}
	r := NewResilient(inner, ResilientOptions{Retries: 5}).WithContext(ctx)
	_, err := r.Label(1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := inner.attemptCount(1); got != 0 {
		t.Fatalf("attempts = %d, want 0 (cancelled before the call)", got)
	}
}

func TestBackoffScheduleDeterministic(t *testing.T) {
	opts := ResilientOptions{Retries: 8, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Seed: 99}
	a := NewResilient(nil, opts)
	b := NewResilient(nil, opts)
	prevCap := time.Duration(0)
	for attempt := 0; attempt < 8; attempt++ {
		d1, d2 := a.backoff(7, attempt), b.backoff(7, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, d1, d2)
		}
		// Envelope: [cap/2, cap) where cap doubles from base up to max.
		cap := opts.BaseBackoff << attempt
		if cap > opts.MaxBackoff {
			cap = opts.MaxBackoff
		}
		if d1 < cap/2 || d1 >= cap {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d1, cap/2, cap)
		}
		if cap > prevCap && attempt > 0 && d1 == 0 {
			t.Fatalf("attempt %d: zero backoff", attempt)
		}
		prevCap = cap
	}
	// Different records jitter differently (overwhelmingly likely).
	if a.backoff(1, 0) == a.backoff(2, 0) && a.backoff(1, 1) == a.backoff(2, 1) && a.backoff(1, 2) == a.backoff(2, 2) {
		t.Fatal("jitter does not depend on the record")
	}
}

// TestResilientManualClockRetry drives a retry schedule entirely with
// the manual clock: no real sleeping, fully deterministic.
func TestResilientManualClockRetry(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	inner := &scriptedOracle{failN: 2}
	r := NewResilient(inner, ResilientOptions{
		Retries:     3,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  time.Second,
		Clock:       clock,
	})
	done := make(chan struct{})
	var v bool
	var err error
	go func() {
		defer close(done)
		v, err = r.Label(3)
	}()
	for i := 0; i < 2; i++ {
		waitPending(t, clock, 1)
		clock.Advance(time.Second) // covers any jittered backoff <= max
	}
	<-done
	if err != nil || !v {
		t.Fatalf("Label = %v, %v; want true", v, err)
	}
	if got := inner.attemptCount(3); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

// TestResilientTimeout drives a per-attempt timeout with the manual
// clock: the first attempt hangs, times out, and the retry succeeds.
func TestResilientTimeout(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	release := make(chan struct{})
	var calls int
	var mu sync.Mutex
	inner := Func(func(i int) (bool, error) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			<-release // hang until the test ends
			return false, errors.New("abandoned")
		}
		return true, nil
	})
	defer close(release)
	var c metrics.Counters
	r := NewResilient(inner, ResilientOptions{
		Timeout:     time.Second,
		Retries:     1,
		BaseBackoff: 10 * time.Millisecond,
		Clock:       clock,
	}).WithCounters(&c)
	done := make(chan struct{})
	var v bool
	var err error
	go func() {
		defer close(done)
		v, err = r.Label(0)
	}()
	waitPending(t, clock, 1) // the attempt timer
	clock.Advance(time.Second)
	waitPending(t, clock, 1) // the backoff sleep
	clock.Advance(time.Second)
	<-done
	if err != nil || !v {
		t.Fatalf("Label = %v, %v; want true after timeout retry", v, err)
	}
	if got := c.Snapshot().OracleTimeouts; got != 1 {
		t.Fatalf("oracle_timeouts = %d, want 1", got)
	}
}

// waitPending blocks until the manual clock has at least n waiters —
// the synchronization point between the test and a goroutine entering
// a backoff sleep or attempt timer.
func waitPending(t *testing.T, clock *ManualClock, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clock.PendingTimers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d pending timers", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestBreakerTransitions(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	b := NewBreaker(BreakerOptions{Threshold: 2, Cooldown: time.Minute, Clock: clock})

	fail := func() {
		t.Helper()
		report, err := b.Allow()
		if err != nil {
			t.Fatalf("Allow refused while %v", b.State())
		}
		report(OutcomeFailure)
	}

	// A success resets the failure streak.
	report, _ := b.Allow()
	report(OutcomeSuccess)
	fail()
	report, _ = b.Allow()
	report(OutcomeSuccess)
	fail()
	if b.State() != BreakerClosed {
		t.Fatalf("state %v, want closed (streak was reset)", b.State())
	}

	// Two consecutive failures trip it open.
	fail()
	if b.State() != BreakerOpen {
		t.Fatalf("state %v, want open", b.State())
	}
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow while open = %v, want ErrBreakerOpen", err)
	}

	// Cooldown elapses: one probe allowed, second caller refused.
	clock.Advance(time.Minute)
	probe, err := b.Allow()
	if err != nil {
		t.Fatalf("probe refused after cooldown: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second probe = %v, want ErrBreakerOpen", err)
	}

	// Failed probe re-opens and restarts the cooldown.
	probe(OutcomeFailure)
	if b.State() != BreakerOpen {
		t.Fatalf("state %v, want open after failed probe", b.State())
	}
	clock.Advance(30 * time.Second)
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("cooldown must restart after a failed probe")
	}
	clock.Advance(30 * time.Second)
	probe, err = b.Allow()
	if err != nil {
		t.Fatalf("probe refused after restarted cooldown: %v", err)
	}

	// Successful probe closes the breaker.
	probe(OutcomeSuccess)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v, want closed after successful probe", b.State())
	}
}

func TestBreakerProbeSkipFreesSlot(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	b := NewBreaker(BreakerOptions{Threshold: 1, Cooldown: time.Second, Clock: clock})
	report, _ := b.Allow()
	report(OutcomeFailure)
	clock.Advance(time.Second)
	probe, err := b.Allow()
	if err != nil {
		t.Fatal(err)
	}
	probe(OutcomeSkip) // e.g. the probing query was cancelled
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open retained", b.State())
	}
	if _, err := b.Allow(); err != nil {
		t.Fatalf("slot not freed after skip: %v", err)
	}
}

func TestNilBreakerAllowsEverything(t *testing.T) {
	var b *Breaker
	report, err := b.Allow()
	if err != nil {
		t.Fatal(err)
	}
	report(OutcomeFailure)
	if b.State() != BreakerClosed {
		t.Fatal("nil breaker must read closed")
	}
}

// TestBreakerConcurrentQueries exercises one breaker shared by many
// goroutines (the -race target): mixed outcomes, open/close cycles.
func TestBreakerConcurrentQueries(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	b := NewBreaker(BreakerOptions{Threshold: 3, Cooldown: time.Millisecond, Clock: clock})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				report, err := b.Allow()
				if err != nil {
					continue
				}
				switch (g + i) % 3 {
				case 0:
					report(OutcomeSuccess)
				case 1:
					report(OutcomeFailure)
				default:
					report(OutcomeSkip)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	for {
		select {
		case <-done:
			if s := b.State(); s != BreakerClosed && s != BreakerOpen && s != BreakerHalfOpen {
				t.Fatalf("invalid state %v", s)
			}
			return
		default:
			clock.Advance(time.Millisecond) // let open breakers half-open
		}
	}
}

func TestChaosDeterministicInjection(t *testing.T) {
	mk := func() *Chaos {
		return NewChaos(Func(func(i int) (bool, error) { return true, nil }),
			ChaosOptions{Seed: 11, FailureRate: 0.5})
	}
	a, b := mk(), mk()
	for i := 0; i < 200; i++ {
		for attempt := 0; attempt < 3; attempt++ {
			_, errA := a.Label(i)
			_, errB := b.Label(i)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("record %d attempt %d: injection not deterministic", i, attempt)
			}
		}
	}
	ta, _ := a.Injected()
	tb, _ := b.Injected()
	if ta != tb || ta == 0 {
		t.Fatalf("injected %d vs %d, want equal and nonzero", ta, tb)
	}
}

func TestChaosScripts(t *testing.T) {
	inner := Func(func(i int) (bool, error) { return true, nil })

	// Fail-N-then-succeed.
	c := NewChaos(inner, ChaosOptions{FailFirst: 2})
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := c.Label(7); err == nil || Classify(err) != ClassTransient {
			t.Fatalf("attempt %d: err = %v, want transient", attempt, err)
		}
	}
	if v, err := c.Label(7); err != nil || !v {
		t.Fatalf("after scripted failures: %v, %v", v, err)
	}

	// Permanent outage window over global call numbers.
	c = NewChaos(inner, ChaosOptions{PermanentFrom: 1, PermanentTo: 3})
	if _, err := c.Label(0); err != nil {
		t.Fatalf("call 0 outside window: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Label(i); err == nil || Classify(err) != ClassPermanent {
			t.Fatalf("window call: err = %v, want permanent", err)
		}
	}
	if _, err := c.Label(9); err != nil {
		t.Fatalf("call after window: %v", err)
	}
	if _, perm := c.Injected(); perm != 2 {
		t.Fatalf("injected permanent = %d, want 2", perm)
	}
}

func TestManualClockAdvance(t *testing.T) {
	clock := NewManualClock(time.Unix(100, 0))
	ch1, stop1 := clock.Timer(time.Second)
	ch2, _ := clock.Timer(3 * time.Second)
	defer stop1()
	clock.Advance(2 * time.Second)
	select {
	case <-ch1:
	default:
		t.Fatal("1s timer did not fire after 2s advance")
	}
	select {
	case <-ch2:
		t.Fatal("3s timer fired early")
	default:
	}
	clock.Advance(time.Second)
	select {
	case <-ch2:
	default:
		t.Fatal("3s timer did not fire")
	}
	if got := clock.Now(); !got.Equal(time.Unix(103, 0)) {
		t.Fatalf("Now = %v", got)
	}
}
