package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"supg/internal/core"
	"supg/internal/dataset"
	"supg/internal/engine"
	"supg/internal/metrics"
	"supg/internal/randx"
)

// listedResponse is the reference for the streamed response: the bytes
// writeJSON writes for the QueryResponse built from res's listed
// Indices, with metrics.Evaluate over the list and the list capped as
// req asks.
func listedResponse(t *testing.T, req QueryRequest, res *engine.QueryResult) []byte {
	t.Helper()
	resp := QueryResponse{
		Returned:             len(res.Indices),
		OracleCalls:          res.OracleCalls,
		ProxyCalls:           res.ProxyCalls,
		IndexRecovered:       res.IndexRecovered,
		LabelCacheHits:       res.LabelCacheHits,
		Fusion:               res.Fusion,
		CalibrationCalls:     res.CalibrationCalls,
		CalibrationCacheHits: res.CalibrationCacheHits,
		ElapsedMS:            float64(res.Elapsed.Microseconds()) / 1000,
	}
	if !math.IsInf(res.Tau, 0) {
		tau := res.Tau
		resp.Tau = &tau
	}
	eval := metrics.Evaluate(res.Table, res.Indices)
	resp.AchievedPrecision, resp.AchievedRecall = eval.Precision, eval.Recall
	if req.IncludeIndices {
		resp.Indices = res.Indices
		if req.MaxIndices > 0 && len(resp.Indices) > req.MaxIndices {
			resp.Indices, resp.Truncated = resp.Indices[:req.MaxIndices], true
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// answerServer serves beta (Beta(0.01, 2), in 4096-record segments so
// answers span segments and stream in several chunks), its soft proxy
// for a fused source, an all-negative table whose precision query
// answers nothing, a separable one whose precision query certifies a
// threshold, and grown, a table queried once before an append.
func answerServer(t *testing.T) *Server {
	t.Helper()
	s := openServer(t, 11, Options{SegmentSize: 4096})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	beta := dataset.Beta(randx.New(3), 60_000, 0.01, 2)
	s.RegisterDataset("beta", beta)
	s.RegisterProxy("beta_soft", func(i int) float64 { return math.Sqrt(beta.Score(i)) })
	scores := make([]float64, 5000)
	for i := range scores {
		scores[i] = float64(i) / float64(len(scores))
	}
	none, err := dataset.New("none", scores, make([]bool, len(scores)))
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterDataset("none", none)
	labels := make([]bool, len(scores))
	for i, sc := range scores {
		labels[i] = sc >= 0.6
	}
	sep, err := dataset.New("sep", scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterDataset("sep", sep)
	s.RegisterDataset("grown", dataset.Beta(randx.New(5), 30_000, 0.5, 3))
	if _, err := s.Engine().ExecuteContext(context.Background(), answerSQL["grown RT"], engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Engine().AppendTable("grown", dataset.Beta(randx.New(6), 9_000, 0.5, 3)); err != nil {
		t.Fatal(err)
	}
	return s
}

var answerSQL = map[string]string{
	"RT":         `SELECT * FROM beta WHERE beta_oracle(x) = true ORACLE LIMIT 1000 USING beta_proxy(x) RECALL TARGET 90% WITH PROBABILITY 95%`,
	"PT":         `SELECT * FROM sep WHERE sep_oracle(x) = true ORACLE LIMIT 1000 USING sep_proxy(x) PRECISION TARGET 90% WITH PROBABILITY 95%`,
	"JT":         `SELECT * FROM beta WHERE beta_oracle(x) = true USING beta_proxy(x) RECALL TARGET 70% PRECISION TARGET 90% WITH PROBABILITY 95%`,
	"tau null":   `SELECT * FROM beta WHERE beta_oracle(x) = true ORACLE LIMIT 40 USING beta_proxy(x) PRECISION TARGET 99% WITH PROBABILITY 95%`,
	"empty":      `SELECT * FROM none WHERE none_oracle(x) = true ORACLE LIMIT 200 USING none_proxy(x) PRECISION TARGET 90% WITH PROBABILITY 95%`,
	"fused":      `SELECT * FROM beta WHERE beta_oracle(x) = true ORACLE LIMIT 1000 USING FUSE(mean, beta_proxy(x), beta_soft(x)) RECALL TARGET 80% WITH PROBABILITY 95%`,
	"grown RT":   `SELECT * FROM grown WHERE grown_oracle(x) = true ORACLE LIMIT 1000 USING grown_proxy(x) RECALL TARGET 70% WITH PROBABILITY 95%`,
	"grown PT95": `SELECT * FROM grown WHERE grown_oracle(x) = true ORACLE LIMIT 1000 USING grown_proxy(x) PRECISION TARGET 95% WITH PROBABILITY 95%`,
}

// TestStreamedResponseMatchesListed pins the answer value's response
// byte for byte against the one a listed answer gives: for recall,
// precision and joint targets, a null tau with and without sampled
// positives, an empty answer, a fused source and a table grown by an
// append, with include_indices off and on, and max_indices of 0, below,
// at and above returned. Returned and the count-based achieved metrics
// equal len(Indices) and metrics.Evaluate over Indices, bit for bit.
func TestStreamedResponseMatchesListed(t *testing.T) {
	s := answerServer(t)
	var sawTau, sawNullTau, sawEmpty, sawChunks bool
	for name, sql := range answerSQL {
		res, err := s.Engine().ExecuteContext(context.Background(), sql, engine.ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp := queryResponse(res)
		eval := metrics.Evaluate(res.Table, res.Indices)
		if resp.Returned != len(res.Indices) ||
			math.Float64bits(resp.AchievedPrecision) != math.Float64bits(eval.Precision) ||
			math.Float64bits(resp.AchievedRecall) != math.Float64bits(eval.Recall) {
			t.Fatalf("%s: returned/precision/recall %d/%v/%v, listed %d/%v/%v", name,
				resp.Returned, resp.AchievedPrecision, resp.AchievedRecall, len(res.Indices), eval.Precision, eval.Recall)
		}
		sawTau = sawTau || (resp.Tau != nil && res.Plan.Spec.Kind == core.PrecisionTarget)
		sawNullTau = sawNullTau || resp.Tau == nil
		sawEmpty = sawEmpty || resp.Returned == 0
		sawChunks = sawChunks || resp.Returned > 2*indexChunk
		n := resp.Returned
		for _, req := range []QueryRequest{
			{}, {IncludeIndices: true}, {IncludeIndices: true, MaxIndices: 1},
			{IncludeIndices: true, MaxIndices: n / 2}, {IncludeIndices: true, MaxIndices: n},
			{IncludeIndices: true, MaxIndices: n + 7},
		} {
			rec := httptest.NewRecorder()
			writeQueryResponse(rec, req, resp, res)
			if want := listedResponse(t, req, res); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s include=%v max=%d: streamed response differs from the listed one:\n%.300s\nwant\n%.300s",
					name, req.IncludeIndices, req.MaxIndices, rec.Body.Bytes(), want)
			}
		}
	}
	if !sawTau || !sawNullTau || !sawEmpty || !sawChunks {
		t.Fatalf("cases miss a certified precision tau (%v), a null tau (%v), an empty answer (%v) or a multi-chunk one (%v)",
			sawTau, sawNullTau, sawEmpty, sawChunks)
	}
}

// elapsedField matches the one response field that differs between two
// runs of a query.
var elapsedField = regexp.MustCompile(`"elapsed_ms":[^,]*`)

// TestJobResultMatchesSyncResponse pins that a job's result, ids
// included, is the synchronous response byte for byte (elapsed_ms
// aside), and that a job without include_indices holds no id list.
func TestJobResultMatchesSyncResponse(t *testing.T) {
	s := answerServer(t)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	for _, name := range []string{"RT", "JT", "grown RT"} {
		for _, req := range []QueryRequest{
			{SQL: answerSQL[name]},
			{SQL: answerSQL[name], IncludeIndices: true},
			{SQL: answerSQL[name], IncludeIndices: true, MaxIndices: 100},
		} {
			// A first run builds the index and fills the label store, so
			// the synchronous run and the job below answer warm.
			postJSON(t, ts.URL+"/v1/query", QueryRequest{SQL: req.SQL}).Body.Close()
			resp := postJSON(t, ts.URL+"/v1/query", req)
			var sync bytes.Buffer
			if _, err := sync.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", name, resp.StatusCode, sync.Bytes())
			}
			id := decodeJob(t, postJSON(t, ts.URL+"/v1/jobs", req), http.StatusAccepted).ID
			waitJob(t, ts.URL, id)
			job, ok := s.manager.Get(id)
			if !ok {
				t.Fatalf("%s: job %s gone", name, id)
			}
			result := job.Snapshot().Result.(*QueryResponse)
			if !req.IncludeIndices && result.Indices != nil {
				t.Fatalf("%s: a job without include_indices holds %d ids", name, len(result.Indices))
			}
			r, err := http.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var info struct {
				Result json.RawMessage `json:"result"`
			}
			err = json.NewDecoder(r.Body).Decode(&info)
			r.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			got := elapsedField.ReplaceAll(info.Result, []byte(`"elapsed_ms":0`))
			want := elapsedField.ReplaceAll(bytes.TrimSuffix(sync.Bytes(), []byte("\n")), []byte(`"elapsed_ms":0`))
			if !bytes.Equal(got, want) {
				t.Fatalf("%s include=%v max=%d: job result differs from the synchronous response:\n%.300s\nwant\n%.300s",
					name, req.IncludeIndices, req.MaxIndices, got, want)
			}
		}
	}
}
