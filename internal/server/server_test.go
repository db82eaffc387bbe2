package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"supg/internal/dataset"
	"supg/internal/randx"
)

// openServer opens a server, failing tb when Open does.
func openServer(tb testing.TB, seed uint64, opts Options) *Server {
	tb.Helper()
	s, err := Open(seed, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func newTestServer(t *testing.T) (*Server, *httptest.Server, *dataset.Dataset) {
	t.Helper()
	s := openServer(t, 7, Options{})
	d := dataset.Beta(randx.New(1), 20000, 0.01, 2)
	s.RegisterDataset("beta", d)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, d
}

func TestHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestListDatasets(t *testing.T) {
	_, ts, d := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "beta" {
		t.Fatalf("infos %+v", infos)
	}
	if infos[0].Records != d.Len() || infos[0].OracleUDF != "beta_oracle" {
		t.Fatalf("info %+v", infos[0])
	}
}

func TestListDatasetsMethod(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func uploadCSV(t *testing.T, ts *httptest.Server, name, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/"+name, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestUploadCSVDataset(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp := uploadCSV(t, ts, "tiny", "id,proxy_score,label\n0,0.9,1\n1,0.1,0\n")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var info DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Records != 2 || info.Positives != 1 {
		t.Fatalf("info %+v", info)
	}
}

func TestUploadBinaryDataset(t *testing.T) {
	_, ts, _ := newTestServer(t)
	d := dataset.Beta(randx.New(2), 500, 1, 1)
	var buf bytes.Buffer
	if err := dataset.WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/bin", &buf)
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
		t.Fatalf("status %d", resp.StatusCode)
	}
	var info DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Records != 500 {
		t.Fatalf("info %+v", info)
	}
}

func TestUploadRejectsBadData(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp := uploadCSV(t, ts, "bad", "not,a,dataset\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestUploadRejectsBadName(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp := uploadCSV(t, ts, "a/b", "id,proxy_score,label\n0,0.5,1\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func postQuery(t *testing.T, ts *httptest.Server, req QueryRequest) (*http.Response, QueryResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var qr QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, qr
}

const serverSQL = `
	SELECT * FROM beta
	WHERE beta_oracle(x) = true
	ORACLE LIMIT 1000
	USING beta_proxy(x)
	RECALL TARGET 85%
	WITH PROBABILITY 95%`

func TestQueryEndToEnd(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, qr := postQuery(t, ts, QueryRequest{SQL: serverSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if qr.Returned == 0 {
		t.Fatal("no records returned")
	}
	if qr.OracleCalls > 1000 {
		t.Fatalf("oracle calls %d exceed the limit", qr.OracleCalls)
	}
	if qr.AchievedRecall < 0.5 {
		t.Fatalf("achieved recall %v implausible", qr.AchievedRecall)
	}
	if qr.Indices != nil {
		t.Fatal("indices returned without include_indices")
	}
}

func TestQueryIndicesTruncation(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, qr := postQuery(t, ts, QueryRequest{SQL: serverSQL, IncludeIndices: true, MaxIndices: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(qr.Indices) != 5 || !qr.Truncated {
		t.Fatalf("indices %d truncated=%v", len(qr.Indices), qr.Truncated)
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, _ := postQuery(t, ts, QueryRequest{SQL: "SELECT garbage"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error status %d", resp.StatusCode)
	}
	resp, _ = postQuery(t, ts, QueryRequest{SQL: ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sql status %d", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET query status %d", resp2.StatusCode)
	}
}

func TestQueryOnUploadedDataset(t *testing.T) {
	_, ts, _ := newTestServer(t)
	d := dataset.Beta(randx.New(3), 10000, 0.05, 1)
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	resp := uploadCSV(t, ts, "fresh", buf.String())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	sql := strings.ReplaceAll(serverSQL, "beta", "fresh")
	qresp, qr := postQuery(t, ts, QueryRequest{SQL: sql})
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", qresp.StatusCode)
	}
	if qr.Returned == 0 {
		t.Fatal("no result from uploaded dataset")
	}
}
