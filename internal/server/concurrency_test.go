package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"supg/internal/dataset"
	"supg/internal/randx"
)

// TestConcurrentQueriesShareIndex hammers /v1/query from many
// goroutines against one registered table: every request must succeed,
// agree on the answer (same SQL ⇒ same random stream), and at most one
// may pay the proxy scan — the rest hit the shared ScoreIndex and
// report zero proxy calls.
func TestConcurrentQueriesShareIndex(t *testing.T) {
	_, ts, _ := newTestServer(t)
	body := `{"sql": "SELECT * FROM beta WHERE beta_oracle(x) = true ORACLE LIMIT 500 USING beta_proxy(x) RECALL TARGET 90% WITH PROBABILITY 95%"}`

	const workers = 16
	responses := make([]QueryResponse, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewBufferString(body))
			if err != nil {
				errs[w] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("worker %d: status %d", w, resp.StatusCode)
				return
			}
			errs[w] = json.NewDecoder(resp.Body).Decode(&responses[w])
		}(w)
	}
	wg.Wait()

	scans := 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if responses[w].ProxyCalls > 0 {
			scans++
		}
		if responses[w].Returned != responses[0].Returned {
			t.Fatalf("worker %d diverged: %+v vs %+v", w, responses[w], responses[0])
		}
		if (responses[w].Tau == nil) != (responses[0].Tau == nil) ||
			(responses[w].Tau != nil && *responses[w].Tau != *responses[0].Tau) {
			t.Fatalf("worker %d tau diverged", w)
		}
		if responses[w].Returned == 0 {
			t.Fatalf("worker %d returned an empty result", w)
		}
	}
	if scans > 1 {
		t.Fatalf("%d requests paid a proxy scan, want at most 1", scans)
	}
}

// TestQueryNoCertifiableThresholdEncodes: a precision query that
// cannot certify any threshold yields tau = +Inf internally, which
// JSON cannot represent; the response must still encode (tau: null)
// instead of dying mid-body.
func TestQueryNoCertifiableThresholdEncodes(t *testing.T) {
	_, ts, _ := newTestServer(t)
	// The 20k-record Beta(0.01, 2) test dataset has ~0.5% positives:
	// with a tight budget no candidate reaches 99% certified precision.
	body := `{"sql": "SELECT * FROM beta WHERE beta_oracle(x) = true ORACLE LIMIT 300 USING beta_proxy(x) PRECISION TARGET 99% WITH PROBABILITY 95%"}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("response did not decode: %v", err)
	}
	if qr.Tau != nil {
		t.Fatalf("tau = %v, want null for an uncertifiable threshold", *qr.Tau)
	}
}

// TestConcurrentStatsAndListingDuringWrites reads /v1/stats and
// /v1/datasets while other goroutines query, append to one table and
// re-upload another on a persisted server (the -race target for the
// engine-owned tables and stats). Every request must succeed, and once
// the writers finish the listing must show each table's final length.
func TestConcurrentStatsAndListingDuringWrites(t *testing.T) {
	s, err := Open(7, Options{PersistDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	s.RegisterDataset("beta", dataset.Beta(randx.New(1), 5000, 0.05, 2))
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	tail := csvBytes(t, dataset.Beta(randx.New(2), 100, 0.5, 1))
	gamma := csvBytes(t, dataset.Beta(randx.New(3), 800, 0.1, 1))
	query := `{"sql": "SELECT * FROM beta WHERE beta_oracle(x) = true ORACLE LIMIT 200 USING beta_proxy(x) RECALL TARGET 90% WITH PROBABILITY 95%"}`

	const rounds = 8
	do := func(method, path, body string) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Errorf("%s %s: status %d", method, path, resp.StatusCode)
		}
	}
	workers := []func(){
		func() { do(http.MethodPost, "/v1/query", query) },
		func() { do(http.MethodPut, "/v1/datasets/beta/append", string(tail)) },
		func() { do(http.MethodPut, "/v1/datasets/gamma", string(gamma)) },
		func() { do(http.MethodGet, "/v1/stats", "") },
		func() { do(http.MethodGet, "/v1/datasets", "") },
	}
	var wg sync.WaitGroup
	for _, work := range workers {
		wg.Add(1)
		go func(work func()) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				work()
			}
		}(work)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "beta" || infos[1].Name != "gamma" {
		t.Fatalf("listing = %+v, want beta and gamma", infos)
	}
	if infos[0].Records != 5000+rounds*100 || infos[1].Records != 800 {
		t.Fatalf("listing = %+v, want %d and 800 records", infos, 5000+rounds*100)
	}
}
