package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/randx"
)

// uploadBinary PUTs a dataset in the binary interchange format.
func uploadBinary(t *testing.T, ts *httptest.Server, name string, d *dataset.Dataset) {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/"+name, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("binary upload: status %d", resp.StatusCode)
	}
}

// TestServerKillRestartPersistRecovery is the service-level acceptance
// test for the durable storage tier: query, kill, boot a fresh server
// on the same persist dir WITHOUT re-uploading anything — recovery
// re-registers the dataset, the first query adopts the persisted index
// (zero proxy UDF calls, zero permutation sorts), labels replay from
// the co-located WAL (zero re-buys), and the answer is byte-identical.
func TestServerKillRestartPersistRecovery(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(1), 20000, 0.01, 2)
	opts := Options{
		PersistDir:   dir,
		LabelWALPath: filepath.Join(dir, "labels.wal"),
	}

	s1, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	s1.RegisterDataset("beta", d)
	ts1 := httptest.NewServer(s1)
	resp, body := postSQL(t, ts1, resilienceRT)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold query: %d (%s)", resp.StatusCode, body)
	}
	var cold QueryResponse
	json.Unmarshal(body, &cold)
	if cold.IndexRecovered || cold.ProxyCalls != d.Len() {
		t.Fatalf("cold query did not build: %+v", cold)
	}
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Fresh server, same directory, NO RegisterDataset: the storage tier
	// must re-offer the recovered table on its own.
	sortsBefore := index.BuildSortsTotal()
	s2, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()

	if s2.Engine().Table("beta") == nil {
		t.Fatal("restarted server did not auto-register the recovered dataset")
	}
	info := s2.Engine().Storage().Stats()
	if info.TablesRecovered != 1 || info.IndexesRecovered != 1 || len(info.Degraded) != 0 {
		t.Fatalf("recovery info: %+v", info)
	}

	resp, body = postSQL(t, ts2, resilienceRT)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query: %d (%s)", resp.StatusCode, body)
	}
	var warm QueryResponse
	json.Unmarshal(body, &warm)
	if !warm.IndexRecovered {
		t.Fatalf("warm query did not adopt the persisted index: %+v", warm)
	}
	if warm.ProxyCalls != 0 {
		t.Fatalf("restart re-ran the proxy %d times, want 0", warm.ProxyCalls)
	}
	if sorts := index.BuildSortsTotal() - sortsBefore; sorts != 0 {
		t.Fatalf("restart performed %d permutation sorts, want 0", sorts)
	}
	if warm.Returned != cold.Returned || warm.OracleCalls != cold.OracleCalls {
		t.Fatalf("post-restart result diverged: %+v vs %+v", warm, cold)
	}
	if (warm.Tau == nil) != (cold.Tau == nil) || (warm.Tau != nil && *warm.Tau != *cold.Tau) {
		t.Fatalf("tau diverged: %v vs %v", warm.Tau, cold.Tau)
	}
	if warm.LabelCacheHits != warm.OracleCalls {
		t.Fatalf("warm run re-bought labels: %d hits vs %d calls", warm.LabelCacheHits, warm.OracleCalls)
	}

	// The stats surface reports the recovery.
	r, err := http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	json.NewDecoder(r.Body).Decode(&stats)
	r.Body.Close()
	if stats["storage_tables_recovered"].(float64) != 1 || stats["storage_indexes_recovered"].(float64) != 1 {
		t.Fatalf("stats missing recovery counters: %v", stats)
	}
	if stats["storage_segments_recovered"].(float64) == 0 {
		t.Fatal("stats report zero recovered segments")
	}
}

// TestServerPersistUploadSurvivesRestart: a dataset uploaded over HTTP
// (binary interchange) is durable — the restarted server serves it
// without any re-upload, and a second upload of different content
// replaces it durably.
func TestServerPersistUploadSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{PersistDir: dir}
	d := dataset.Beta(randx.New(2), 5000, 0.05, 2)

	s1, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	uploadBinary(t, ts1, "up", d)
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	got := s2.Engine().Table("up")
	if got == nil || got.Len() != d.Len() {
		t.Fatalf("uploaded dataset not recovered: %v", got)
	}
	for i := 0; i < d.Len(); i++ {
		if got.Score(i) != d.Score(i) || got.TrueLabel(i) != d.TrueLabel(i) {
			t.Fatalf("recovered record %d diverged", i)
		}
	}
}

// TestPersistRestartWithOracleLatencyKeepsLabels restarts a persisted
// server that simulates oracle latency. Recovery re-registers the
// table, and the latency decoration that comes with it must keep what
// the first boot paid for: the replayed labels (the restarted query
// re-buys none) and the staged calibrated fused index (adopted, not
// recalibrated).
func TestPersistRestartWithOracleLatencyKeepsLabels(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(1), 20000, 0.01, 2)
	opts := Options{
		PersistDir:    dir,
		LabelWALPath:  filepath.Join(dir, "labels.wal"),
		OracleLatency: time.Microsecond,
	}
	soft := func(i int) float64 { return math.Sqrt(d.Score(i)) }

	s1, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	s1.RegisterDataset("beta", d)
	s1.RegisterProxy("beta_proxy_soft", soft)
	ts1 := httptest.NewServer(s1)
	cold := postQueryOK(t, ts1.URL, QueryRequest{SQL: resilienceRT})
	postQueryOK(t, ts1.URL, QueryRequest{SQL: fusedSQL})
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	s2.RegisterProxy("beta_proxy_soft", soft)
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	warm := postQueryOK(t, ts2.URL, QueryRequest{SQL: resilienceRT})
	if warm.OracleCalls != cold.OracleCalls || warm.LabelCacheHits != warm.OracleCalls {
		t.Fatalf("restarted query served %d of %d labels from the store (cold run: %d calls)",
			warm.LabelCacheHits, warm.OracleCalls, cold.OracleCalls)
	}
	fused := postQueryOK(t, ts2.URL, QueryRequest{SQL: fusedSQL})
	if !fused.IndexRecovered || fused.CalibrationCalls != 0 {
		t.Fatalf("restarted fused query recalibrated: recovered %v, %d calibration calls",
			fused.IndexRecovered, fused.CalibrationCalls)
	}
}

// TestPersistDatasetsListingGolden pins the GET /v1/datasets body for
// uploaded (CSV and binary), appended and recovered tables to the
// bytes the server produced when it still kept its own table summaries
// beside the engine's tables.
func TestPersistDatasetsListingGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "datasets_listing.json"))
	if err != nil {
		t.Fatal(err)
	}
	listing := func(ts *httptest.Server) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/datasets")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	opts := Options{PersistDir: t.TempDir()}

	s1, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	if w := putBody(t, s1, "/v1/datasets/beta", "", csvBytes(t, dataset.Beta(randx.New(1), 2000, 0.05, 2))); w.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", w.Code, w.Body.String())
	}
	uploadBinary(t, ts1, "alpha", dataset.Beta(randx.New(2), 1000, 0.2, 1))
	if w := putBody(t, s1, "/v1/datasets/beta/append", "", csvBytes(t, dataset.Beta(randx.New(3), 500, 0.5, 1))); w.Code != http.StatusOK {
		t.Fatalf("append: %d %s", w.Code, w.Body.String())
	}
	if got := listing(ts1); !bytes.Equal(got, want) {
		t.Errorf("listing before restart:\n%s\nwant:\n%s", got, want)
	}
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	if got := listing(ts2); !bytes.Equal(got, want) {
		t.Errorf("listing of recovered tables:\n%s\nwant:\n%s", got, want)
	}
}
