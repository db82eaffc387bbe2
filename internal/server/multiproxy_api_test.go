package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"supg/internal/dataset"
	"supg/internal/randx"
)

// newFusedTestServer is a server whose dataset has a second registered
// proxy view (sqrt of the calibrated score), so FUSE queries have two
// member columns to combine.
func newFusedTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := openServer(t, 7, opts)
	d := dataset.Beta(randx.New(1), 20_000, 0.01, 2)
	s.RegisterDataset("beta", d)
	s.RegisterProxy("beta_proxy_soft", func(i int) float64 { return math.Sqrt(d.Score(i)) })
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts
}

const fusedSQL = `SELECT * FROM beta WHERE beta_oracle(x) = true ` +
	`ORACLE LIMIT 500 USING FUSE(logistic, beta_proxy(x), beta_proxy_soft(x)) CALIBRATE 100 ` +
	`RECALL TARGET 90% WITH PROBABILITY 95%`

// postFused runs the fused query through /v1/query via the shared
// postQuery helper, failing the test on a non-200.
func postFused(t *testing.T, ts *httptest.Server, req QueryRequest) QueryResponse {
	t.Helper()
	resp, qr := postQuery(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	return qr
}

// TestMultiProxyQueryOverHTTP runs a fused logistic query through
// /v1/query twice: the first run builds and calibrates the fused
// index, the second is served entirely from cache (no proxy calls, no
// calibration) with identical results.
func TestMultiProxyQueryOverHTTP(t *testing.T) {
	_, ts := newFusedTestServer(t, Options{})

	cold := postFused(t, ts, QueryRequest{SQL: fusedSQL, IncludeIndices: true})
	if cold.Fusion != "logistic" {
		t.Errorf("fusion %q", cold.Fusion)
	}
	if cold.CalibrationCalls != 100 {
		t.Errorf("calibration_calls %d, want 100", cold.CalibrationCalls)
	}
	if cold.ProxyCalls != 2*20_000 {
		t.Errorf("proxy_calls %d, want %d", cold.ProxyCalls, 2*20_000)
	}
	if cold.Returned == 0 || cold.AchievedRecall == 0 {
		t.Errorf("degenerate result %+v", cold)
	}

	warm := postFused(t, ts, QueryRequest{SQL: fusedSQL, IncludeIndices: true})
	if warm.ProxyCalls != 0 || warm.CalibrationCalls != 0 {
		t.Errorf("second run rebuilt: proxy_calls=%d calibration_calls=%d", warm.ProxyCalls, warm.CalibrationCalls)
	}
	if warm.Returned != cold.Returned || warm.OracleCalls != cold.OracleCalls {
		t.Errorf("warm result drifted: %+v vs %+v", warm, cold)
	}
	if len(warm.Indices) != len(cold.Indices) {
		t.Fatalf("indices %d vs %d", len(warm.Indices), len(cold.Indices))
	}
	for i := range warm.Indices {
		if warm.Indices[i] != cold.Indices[i] {
			t.Fatalf("index %d: %d vs %d", i, warm.Indices[i], cold.Indices[i])
		}
	}
}

// TestMultiProxyJobOverHTTP submits the same fused query through the
// async job API and checks it matches the synchronous result — jobs
// and queries share one engine, one fused index, and one label store.
func TestMultiProxyJobOverHTTP(t *testing.T) {
	_, ts := newFusedTestServer(t, Options{Workers: 2})

	sync := postFused(t, ts, QueryRequest{SQL: fusedSQL, IncludeIndices: true})

	info := decodeJob(t, postJSON(t, ts.URL+"/v1/jobs", QueryRequest{SQL: fusedSQL, IncludeIndices: true}), http.StatusAccepted)
	final := waitJob(t, ts.URL, info.ID)
	if final.State != "done" || final.Result == nil {
		t.Fatalf("job finished %q (error %q)", final.State, final.Error)
	}
	job := *final.Result
	if job.Fusion != "logistic" {
		t.Errorf("job fusion %q", job.Fusion)
	}
	// The sync run already built the fused index; the job reuses it.
	if job.ProxyCalls != 0 || job.CalibrationCalls != 0 {
		t.Errorf("job rebuilt the fused index: proxy_calls=%d calibration_calls=%d", job.ProxyCalls, job.CalibrationCalls)
	}
	if job.Returned != sync.Returned || job.OracleCalls != sync.OracleCalls {
		t.Errorf("job result drifted from sync: %+v vs %+v", job, sync)
	}
	for i := range job.Indices {
		if job.Indices[i] != sync.Indices[i] {
			t.Fatalf("index %d: %d vs %d", i, job.Indices[i], sync.Indices[i])
		}
	}
}

// TestSingleProxyResponseOmitsFusionFields pins the wire shape: classic
// queries carry no fusion keys at all.
func TestSingleProxyResponseOmitsFusionFields(t *testing.T) {
	_, ts := newFusedTestServer(t, Options{})
	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{SQL: jobSQL})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"fusion", "calibration_calls", "calibration_cache_hits"} {
		if _, ok := raw[key]; ok {
			t.Errorf("single-proxy response leaked %q", key)
		}
	}
}
