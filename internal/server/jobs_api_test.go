package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"supg/internal/dataset"
	"supg/internal/randx"
)

// newJobTestServer builds a server with explicit options, a shared
// 20k-record dataset, and a live HTTP listener.
func newJobTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := openServer(t, 7, opts)
	d := dataset.Beta(randx.New(1), 20_000, 0.01, 2)
	s.RegisterDataset("beta", d)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response, wantStatus int) JobInfo {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func getJob(t *testing.T, base, id string) JobInfo {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	return decodeJob(t, resp, http.StatusOK)
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, base, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info := getJob(t, base, id)
		switch info.State {
		case "done", "failed", "cancelled":
			return info
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobInfo{}
}

const jobSQL = `SELECT * FROM beta WHERE beta_oracle(x) = true ` +
	`ORACLE LIMIT 500 USING beta_proxy(x) RECALL TARGET 90% WITH PROBABILITY 95%`

func TestJobLifecycleOverHTTP(t *testing.T) {
	_, ts := newJobTestServer(t, Options{Workers: 2, OracleParallelism: 4})

	info := decodeJob(t, postJSON(t, ts.URL+"/v1/jobs", QueryRequest{SQL: jobSQL}), http.StatusAccepted)
	if info.ID == "" || info.SQL != jobSQL {
		t.Fatalf("submit response %+v", info)
	}

	final := waitJob(t, ts.URL, info.ID)
	if final.State != "done" {
		t.Fatalf("job state %s (err %q)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Returned == 0 {
		t.Fatalf("missing result: %+v", final)
	}
	if final.OracleCalls != final.Result.OracleCalls {
		t.Errorf("progress %d != result oracle calls %d", final.OracleCalls, final.Result.OracleCalls)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Errorf("missing timestamps: %+v", final)
	}

	// The list endpoint shows the job without its result payload.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != info.ID || list[0].Result != nil {
		t.Fatalf("list %+v", list)
	}

	// DELETE on a finished job removes its record.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+info.ID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", delResp.StatusCode)
	}
	gone, err := http.Get(ts.URL + "/v1/jobs/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("status after delete %d, want 404", gone.StatusCode)
	}
}

func TestJobUnknownAndBadRequests(t *testing.T) {
	_, ts := newJobTestServer(t, Options{})

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/jobs", QueryRequest{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sql status %d", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/jobs", QueryRequest{SQL: "SELECT nonsense"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bad sql submit status %d", resp.StatusCode)
	}
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := waitJob(t, ts.URL, info.ID)
	if final.State != "failed" || final.Error == "" {
		t.Errorf("bad sql job = %+v, want failed with error", final)
	}
}

// TestQueryBodyLimit pins the query endpoints to the configured
// Options.MaxBodyBytes — the same cap the dataset endpoints honor. A
// hardcoded 1 MiB limit used to shadow the option on /v1/query and
// /v1/jobs.
func TestQueryBodyLimit(t *testing.T) {
	_, ts := newJobTestServer(t, Options{MaxBodyBytes: 4096})
	huge := `{"sql":"` + strings.Repeat("x", 8192) + `"}`
	for _, path := range []string{"/v1/query", "/v1/jobs"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: decoding 413 body: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body status %d, want 413", path, resp.StatusCode)
		}
		// Same 413 shape as the dataset endpoints.
		if want := "request body exceeds the 4096-byte limit"; body.Error != want {
			t.Errorf("%s 413 error = %q, want %q", path, body.Error, want)
		}
	}
}

// TestQueryBodyLimitHonorsConfiguredCap is the other half of the
// regression: a statement larger than the old hardcoded 1 MiB cap must
// be accepted when the configured cap allows it (it parses as a bad
// query, not a 413).
func TestQueryBodyLimitHonorsConfiguredCap(t *testing.T) {
	_, ts := newJobTestServer(t, Options{})
	big := `{"sql":"` + strings.Repeat("x", 2<<20) + `"}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("2 MiB body under the default 64 MiB cap: status %d, want 400 (bad query)", resp.StatusCode)
	}
}

func TestJobStatsEndpoint(t *testing.T) {
	_, ts := newJobTestServer(t, Options{Workers: 1, OracleParallelism: 4})
	info := decodeJob(t, postJSON(t, ts.URL+"/v1/jobs", QueryRequest{SQL: jobSQL}), http.StatusAccepted)
	waitJob(t, ts.URL, info.ID)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		JobsSubmitted   int64 `json:"jobs_submitted"`
		JobsDone        int64 `json:"jobs_done"`
		Queries         int64 `json:"queries"`
		DispatchBatches int64 `json:"oracle_dispatch_batches"`
		DispatchCalls   int64 `json:"oracle_dispatch_calls"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.JobsSubmitted != 1 || stats.JobsDone != 1 || stats.Queries != 1 {
		t.Errorf("stats %+v", stats)
	}
	if stats.DispatchBatches == 0 || stats.DispatchCalls == 0 {
		t.Errorf("dispatch counters empty: %+v", stats)
	}
}

func TestUploadBodyLimit(t *testing.T) {
	_, ts := newJobTestServer(t, Options{MaxBodyBytes: 1024})

	big := "id,proxy_score,label\n" + strings.Repeat("1,0.5,1\n", 1000)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/big", strings.NewReader(big))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}

	small := "id,proxy_score,label\n0,0.5,1\n1,0.25,0\n"
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/small", strings.NewReader(small))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("small upload status %d, want 201", resp.StatusCode)
	}
}

// TestJobAPIAcceptance is the PR acceptance test: with a 5ms-latency
// simulated oracle and budget 500, the job API with dispatcher
// parallelism 8 must complete at least 4x faster than the sequential
// path while returning byte-identical indices and tau for the same
// seed.
func TestJobAPIAcceptance(t *testing.T) {
	const latency = 5 * time.Millisecond
	_, seqTS := newJobTestServer(t, Options{OracleParallelism: 1, OracleLatency: latency})
	_, parTS := newJobTestServer(t, Options{OracleParallelism: 8, OracleLatency: latency, Workers: 2})
	req := QueryRequest{SQL: jobSQL, IncludeIndices: true}

	// Sequential reference via the synchronous endpoint.
	seqStart := time.Now()
	resp := postJSON(t, seqTS.URL+"/v1/query", req)
	seqElapsed := time.Since(seqStart)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync query status %d", resp.StatusCode)
	}
	var seq QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&seq); err != nil {
		t.Fatal(err)
	}

	// Same query through the async job API with parallel dispatch.
	parStart := time.Now()
	info := decodeJob(t, postJSON(t, parTS.URL+"/v1/jobs", req), http.StatusAccepted)
	final := waitJob(t, parTS.URL, info.ID)
	parElapsed := time.Since(parStart)
	if final.State != "done" {
		t.Fatalf("job state %s (err %q)", final.State, final.Error)
	}
	par := *final.Result

	// Byte-identical results for the same seed.
	seqJSON, _ := json.Marshal(struct {
		Indices []int    `json:"indices"`
		Tau     *float64 `json:"tau"`
	}{seq.Indices, seq.Tau})
	parJSON, _ := json.Marshal(struct {
		Indices []int    `json:"indices"`
		Tau     *float64 `json:"tau"`
	}{par.Indices, par.Tau})
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatalf("results differ:\nsequential %d indices, tau %v\nparallel   %d indices, tau %v",
			len(seq.Indices), seq.Tau, len(par.Indices), par.Tau)
	}
	if seq.OracleCalls != par.OracleCalls {
		t.Errorf("oracle calls differ: %d vs %d", seq.OracleCalls, par.OracleCalls)
	}

	if parElapsed*4 > seqElapsed {
		t.Errorf("parallel job not >=4x faster: sequential %v, parallel %v (%.1fx)",
			seqElapsed, parElapsed, float64(seqElapsed)/float64(parElapsed))
	}
	t.Logf("sequential %v, parallel-8 job %v (%.1fx speedup, %d oracle calls)",
		seqElapsed, parElapsed, float64(seqElapsed)/float64(parElapsed), seq.OracleCalls)
}

// TestJobCancellationStopsOracle verifies DELETE on a running job stops
// oracle consumption mid-run.
func TestJobCancellationStopsOracle(t *testing.T) {
	const latency = 5 * time.Millisecond
	_, ts := newJobTestServer(t, Options{OracleParallelism: 2, OracleLatency: latency, Workers: 1})

	sql := `SELECT * FROM beta WHERE beta_oracle(x) = true ` +
		`ORACLE LIMIT 2000 USING beta_proxy(x) RECALL TARGET 90% WITH PROBABILITY 95%`
	info := decodeJob(t, postJSON(t, ts.URL+"/v1/jobs", QueryRequest{SQL: sql}), http.StatusAccepted)

	// Wait until the job is consuming oracle budget.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur := getJob(t, ts.URL, info.ID)
		if cur.State == "running" && cur.OracleCalls > 0 {
			break
		}
		if cur.State != "queued" && cur.State != "running" {
			t.Fatalf("job reached %s before cancellation", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started consuming oracle calls")
		}
		time.Sleep(2 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}

	final := waitJob(t, ts.URL, info.ID)
	if final.State != "cancelled" {
		t.Fatalf("state %s, want cancelled (err %q)", final.State, final.Error)
	}
	if final.OracleCalls == 0 || final.OracleCalls >= 2000 {
		t.Errorf("oracle calls at cancellation = %d, want mid-run (0 < n < 2000)", final.OracleCalls)
	}
	settled := final.OracleCalls
	time.Sleep(50 * time.Millisecond)
	if again := getJob(t, ts.URL, final.ID); again.OracleCalls != settled {
		t.Errorf("oracle consumption continued after cancellation: %d -> %d", settled, again.OracleCalls)
	}
	if _, err := fmt.Sscanf(final.ID, "job-%d", new(int)); err != nil {
		t.Errorf("unexpected job id shape %q", final.ID)
	}
}
