package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"supg/internal/dataset"
	"supg/internal/randx"
)

// fuzzMaxBody is the request-body cap of the fuzz server: small enough
// that fuzzed bodies reach the 413 path.
const fuzzMaxBody = 4096

// queryStatuses are the statuses /v1/query documents: 200, the 400 and
// 413 of decodeQueryRequest, and writeQueryError's 499, 503 and 504.
var queryStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusRequestEntityTooLarge: true,
	statusClientClosedRequest:        true,
	http.StatusServiceUnavailable:    true,
	http.StatusGatewayTimeout:        true,
}

// jobStatuses are the statuses POST /v1/jobs documents: 202, the 400
// and 413 of decodeQueryRequest, and 503 when the queue refuses.
var jobStatuses = map[int]bool{
	http.StatusAccepted:              true,
	http.StatusBadRequest:            true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusServiceUnavailable:    true,
}

// FuzzQueryRequest posts arbitrary bodies to /v1/query and /v1/jobs on
// a server preloaded with a small table (t, with UDFs t_oracle,
// t_proxy and a second proxy t_alt for FUSE sources). Neither endpoint
// may panic or answer with a status outside its documented set; every
// 200 or 202 must carry a body that decodes into its documented shape,
// and every error a non-empty JSON error message. Committed seed
// corpus in testdata/fuzz/FuzzQueryRequest.
func FuzzQueryRequest(f *testing.F) {
	s := openServer(f, 3, Options{MaxBodyBytes: fuzzMaxBody})
	f.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	d := dataset.Beta(randx.New(9), 2000, 0.01, 2)
	s.RegisterDataset("t", d)
	s.RegisterProxy("t_alt", func(i int) float64 { return 1 - d.Score(i) })

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(s, "/v1/query", body)
		if !queryStatuses[rec.Code] {
			t.Fatalf("/v1/query answered %d: %s", rec.Code, rec.Body.Bytes())
		}
		if rec.Code == http.StatusOK {
			var resp QueryResponse
			decodeStrict(t, "/v1/query", rec, &resp)
			if resp.Returned < len(resp.Indices) || resp.OracleCalls < 0 {
				t.Fatalf("/v1/query: inconsistent answer %+v", resp)
			}
		} else {
			checkErrorBody(t, "/v1/query", rec)
		}

		rec = post(s, "/v1/jobs", body)
		if !jobStatuses[rec.Code] {
			t.Fatalf("/v1/jobs answered %d: %s", rec.Code, rec.Body.Bytes())
		}
		if rec.Code == http.StatusAccepted {
			var info JobInfo
			decodeStrict(t, "/v1/jobs", rec, &info)
			if info.ID == "" {
				t.Fatalf("/v1/jobs: accepted job without an id: %s", rec.Body.Bytes())
			}
		} else {
			checkErrorBody(t, "/v1/jobs", rec)
		}
	})
}

func post(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// decodeStrict decodes the whole recorded body into v, rejecting
// unknown fields and trailing data.
func decodeStrict(t *testing.T, path string, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %d body does not decode: %v: %q", path, rec.Code, err, rec.Body.Bytes())
	}
	if dec.More() {
		t.Fatalf("%s: %d body has trailing data: %q", path, rec.Code, rec.Body.Bytes())
	}
}

func checkErrorBody(t *testing.T, path string, rec *httptest.ResponseRecorder) {
	t.Helper()
	var e errorBody
	decodeStrict(t, path, rec, &e)
	if e.Error == "" {
		t.Fatalf("%s: %d without an error message", path, rec.Code)
	}
}
