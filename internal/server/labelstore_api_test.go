package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

const storeSQL = `SELECT * FROM beta WHERE beta_oracle(x) = true ORACLE LIMIT 400 ` +
	`USING beta_proxy(x) RECALL TARGET 90% WITH PROBABILITY 95%`

func postQueryOK(t *testing.T, url string, req QueryRequest) QueryResponse {
	t.Helper()
	resp := postJSON(t, url+"/v1/query", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLabelStoreSharedAcrossQueriesAndJobs: a synchronous query warms
// the store, an async job of the same statement is served from it, and
// /v1/stats exposes the hit/miss counters. Charged mode keeps the
// job's result identical to the cold run.
func TestLabelStoreSharedAcrossQueriesAndJobs(t *testing.T) {
	_, ts := newJobTestServer(t, Options{Workers: 1})

	cold := postQueryOK(t, ts.URL, QueryRequest{SQL: storeSQL, IncludeIndices: true})
	if cold.LabelCacheHits != 0 {
		t.Errorf("cold query reported %d cache hits", cold.LabelCacheHits)
	}

	info := decodeJob(t, postJSON(t, ts.URL+"/v1/jobs", QueryRequest{SQL: storeSQL, IncludeIndices: true}), http.StatusAccepted)
	final := waitJob(t, ts.URL, info.ID)
	if final.State != "done" || final.Result == nil {
		t.Fatalf("job = %+v, want done with result", final)
	}
	warm := *final.Result
	if warm.LabelCacheHits != warm.OracleCalls || warm.LabelCacheHits == 0 {
		t.Errorf("warm job: %d cache hits / %d oracle calls, want all charged calls served from store",
			warm.LabelCacheHits, warm.OracleCalls)
	}
	if warm.OracleCalls != cold.OracleCalls || warm.Returned != cold.Returned {
		t.Errorf("warm job diverged: calls %d/%d returned %d/%d",
			warm.OracleCalls, cold.OracleCalls, warm.Returned, cold.Returned)
	}
	if len(warm.Indices) != len(cold.Indices) {
		t.Fatalf("warm indices %d, cold %d", len(warm.Indices), len(cold.Indices))
	}
	for i := range warm.Indices {
		if warm.Indices[i] != cold.Indices[i] {
			t.Fatalf("index %d diverged", i)
		}
	}
	// The job's progress accounting must agree with the final call
	// count even though every label came from the store.
	if final.OracleCalls != warm.OracleCalls {
		t.Errorf("job progress %d != result oracle calls %d", final.OracleCalls, warm.OracleCalls)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Hits   int64 `json:"label_cache_hits"`
		Misses int64 `json:"label_cache_misses"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Errorf("stats label cache hits/misses = %d/%d, want both > 0", stats.Hits, stats.Misses)
	}
}

// TestFreeReuseRequestField: the free_reuse request flag makes warm
// hits free, so a fully-warm query charges zero oracle calls.
func TestFreeReuseRequestField(t *testing.T) {
	_, ts := newJobTestServer(t, Options{})
	cold := postQueryOK(t, ts.URL, QueryRequest{SQL: storeSQL})
	if cold.OracleCalls == 0 {
		t.Fatal("cold query consumed no budget")
	}
	free := postQueryOK(t, ts.URL, QueryRequest{SQL: storeSQL, FreeReuse: true})
	if free.OracleCalls != 0 {
		t.Errorf("warm free_reuse query charged %d calls, want 0", free.OracleCalls)
	}
	if free.LabelCacheHits == 0 {
		t.Error("warm free_reuse query reported no cache hits")
	}
}

// TestLabelStoreDisabledOption: a negative LabelCacheBytes turns
// reuse off — repeated queries re-pay the oracle.
func TestLabelStoreDisabledOption(t *testing.T) {
	_, ts := newJobTestServer(t, Options{LabelCacheBytes: -1})
	postQueryOK(t, ts.URL, QueryRequest{SQL: storeSQL})
	warm := postQueryOK(t, ts.URL, QueryRequest{SQL: storeSQL})
	if warm.LabelCacheHits != 0 {
		t.Errorf("disabled store served %d hits", warm.LabelCacheHits)
	}
}

// TestUploadInvalidatesLabelCache: re-uploading a dataset re-registers
// its table and default UDFs, so stored labels must not carry over.
func TestUploadInvalidatesLabelCache(t *testing.T) {
	s, ts := newJobTestServer(t, Options{})
	postQueryOK(t, ts.URL, QueryRequest{SQL: storeSQL}) // warm the store
	if s.engine.LabelStore().Len() == 0 {
		t.Fatal("store empty after a query")
	}
	// Re-register the same dataset under the same name.
	s.RegisterDataset("beta", s.engine.Table("beta"))
	res := postQueryOK(t, ts.URL, QueryRequest{SQL: storeSQL})
	if res.LabelCacheHits != 0 {
		t.Errorf("query after re-registration served %d stale hits", res.LabelCacheHits)
	}
}
