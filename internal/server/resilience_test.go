package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"supg/internal/dataset"
	"supg/internal/oracle"
	"supg/internal/randx"
)

const resilienceRT = `
	SELECT * FROM beta
	WHERE beta_oracle(x) = true
	ORACLE LIMIT 1000
	USING beta_proxy(x)
	RECALL TARGET 90%
	WITH PROBABILITY 95%`

func postSQL(t *testing.T, ts *httptest.Server, sql string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{SQL: sql})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestQueryContextErrorStatuses pins the /v1/query status mapping for
// the two context failure shapes: client-gone (499) vs server-side
// deadline (504) — neither is a 500, neither is a client's bad query.
func TestQueryContextErrorStatuses(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"cancelled maps to 499", context.Canceled, statusClientClosedRequest},
		{"deadline maps to 504", context.DeadlineExceeded, http.StatusGatewayTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openServer(t, 7, Options{})
			d := dataset.Beta(randx.New(1), 20000, 0.01, 2)
			s.RegisterDataset("beta", d)
			// The oracle surfaces the context error mid-query, exactly as
			// the budget wrapper does when the request context fires.
			s.Engine().RegisterOracle("beta_oracle", func(i int) (bool, error) {
				return false, tc.err
			})
			ts := httptest.NewServer(s)
			defer ts.Close()
			resp, body := postSQL(t, ts, resilienceRT)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d (%s), want %d", resp.StatusCode, body, tc.want)
			}
		})
	}
}

// TestQueryClientDisconnectMapsTo499 cancels the request context
// mid-query — the real client-gone path, not a simulated error.
func TestQueryClientDisconnectMapsTo499(t *testing.T) {
	s := openServer(t, 7, Options{})
	d := dataset.Beta(randx.New(1), 20000, 0.01, 2)
	s.RegisterDataset("beta", d)
	started := make(chan struct{})
	var once atomic.Bool
	s.Engine().RegisterOracle("beta_oracle", func(i int) (bool, error) {
		if once.CompareAndSwap(false, true) {
			close(started)
		}
		time.Sleep(2 * time.Millisecond)
		return d.TrueLabel(i), nil
	})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	body, _ := json.Marshal(QueryRequest{SQL: resilienceRT})
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status = %d (%s), want 499", rec.Code, rec.Body.String())
	}
}

// brokenBackendServer returns a server whose oracle succeeds okCalls
// times and then fails transiently forever, under a tight breaker.
func brokenBackendServer(t *testing.T, okCalls int64, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.Beta(randx.New(1), 20000, 0.01, 2)
	s.RegisterDataset("beta", d)
	var calls atomic.Int64
	s.Engine().RegisterOracle("beta_oracle", func(i int) (bool, error) {
		if calls.Add(1) > okCalls {
			return false, oracle.Transient(errors.New("backend down"))
		}
		return d.TrueLabel(i), nil
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// TestOracleUnavailableMapsTo503 drives the degradation contract over
// HTTP: a dead oracle backend yields 503 with a Retry-After hint and
// the labels-folded diagnostic, the breaker opens, and GET /readyz
// flips to not-ready while /healthz stays 200.
func TestOracleUnavailableMapsTo503(t *testing.T) {
	_, ts := brokenBackendServer(t, 5, Options{
		OracleRetries:    1,
		OracleBackoff:    time.Nanosecond,
		BreakerThreshold: 1,
		BreakerCooldown:  90 * time.Second,
	})

	// Ready before any trouble.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before failure = %d", resp.StatusCode)
	}

	resp, body := postSQL(t, ts, resilienceRT)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "90" {
		t.Fatalf("Retry-After = %q, want \"90\" (the breaker cooldown)", got)
	}
	if !strings.Contains(string(body), "labels folded") {
		t.Fatalf("body %s lacks the labels-folded diagnostic", body)
	}

	// The breaker (threshold 1) is now open: not ready, but alive.
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready readyResponse
	json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Ready || ready.BreakersOpen != 1 {
		t.Fatalf("readyz after breaker open: %d %+v", resp.StatusCode, ready)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz must stay 200 while the breaker is open, got %d", resp.StatusCode)
	}

	// Fail-fast path keeps the same 503 shape.
	resp, body = postSQL(t, ts, resilienceRT)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("breaker-open query: %d (%s)", resp.StatusCode, body)
	}

	// Stats expose the new counters.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	for _, key := range []string{"oracle_retries", "oracle_timeouts", "breaker_state", "wal_records", "wal_replayed"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("stats lack %q: %v", key, stats)
		}
	}
	if stats["breaker_state"].(float64) != 1 {
		t.Fatalf("breaker_state = %v, want 1", stats["breaker_state"])
	}
	if stats["oracle_retries"].(float64) == 0 {
		t.Fatal("oracle_retries = 0 despite retried failures")
	}
}

// TestOracleUnavailableRetryAfterDefault pins the Retry-After hint at
// zero-value breaker options: the breaker's default cooldown, one
// second.
func TestOracleUnavailableRetryAfterDefault(t *testing.T) {
	_, ts := brokenBackendServer(t, 5, Options{
		OracleRetries: 1,
		OracleBackoff: time.Nanosecond,
	})
	resp, body := postSQL(t, ts, resilienceRT)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (the default breaker cooldown)", got)
	}
}

// TestJobFailureCarriesDiagnostic pins the async path: a job against a
// dead backend transitions to failed with the unavailability
// diagnostic (including the labels-folded count) in its error string.
func TestJobFailureCarriesDiagnostic(t *testing.T) {
	_, ts := brokenBackendServer(t, 5, Options{
		OracleRetries:    1,
		OracleBackoff:    time.Nanosecond,
		BreakerThreshold: 5,
		BreakerCooldown:  time.Hour,
	})
	body, _ := json.Marshal(QueryRequest{SQL: resilienceRT})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info JobInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + info.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(r.Body).Decode(&info)
		r.Body.Close()
		if info.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !strings.Contains(info.Error, "unavailable") || !strings.Contains(info.Error, "labels folded") {
		t.Fatalf("job error %q lacks the unavailability diagnostic", info.Error)
	}
}

// TestServerKillRestartWALRecovery is the service-level durability
// acceptance test: run a query, shut the server down (simulated crash
// + clean WAL close), boot a fresh server on the same WAL, re-register
// the same dataset, and re-run — every label must come from the store
// (zero re-buys) with a byte-identical result.
func TestServerKillRestartWALRecovery(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "labels.wal")
	d := dataset.Beta(randx.New(1), 20000, 0.01, 2)
	opts := Options{LabelWALPath: walPath}

	boot := func() (*Server, *httptest.Server) {
		s, err := Open(7, opts)
		if err != nil {
			t.Fatal(err)
		}
		s.RegisterDataset("beta", d)
		ts := httptest.NewServer(s)
		return s, ts
	}

	s1, ts1 := boot()
	resp, body := postSQL(t, ts1, resilienceRT)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold query: %d (%s)", resp.StatusCode, body)
	}
	var cold QueryResponse
	json.Unmarshal(body, &cold)
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := boot()
	defer ts2.Close()
	defer s2.Shutdown(context.Background())
	if got := s2.Engine().LabelStore().Stats().WALReplayed; got == 0 {
		t.Fatal("restarted server replayed nothing")
	}
	resp, body = postSQL(t, ts2, resilienceRT)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query: %d (%s)", resp.StatusCode, body)
	}
	var warm QueryResponse
	json.Unmarshal(body, &warm)
	if warm.Returned != cold.Returned || warm.OracleCalls != cold.OracleCalls {
		t.Fatalf("post-restart result diverged: %+v vs %+v", warm, cold)
	}
	if warm.LabelCacheHits != warm.OracleCalls {
		t.Fatalf("warm run re-bought labels: %d hits vs %d calls", warm.LabelCacheHits, warm.OracleCalls)
	}
}

// TestReadyzMethod pins the readiness probe's method guard.
func TestReadyzMethod(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/readyz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestBadQueryStaysBadRequest guards the default mapping: an invalid
// statement is still the client's 400, not a 5xx.
func TestBadQueryStaysBadRequest(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, _ := postSQL(t, ts, "SELECT nonsense")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}
