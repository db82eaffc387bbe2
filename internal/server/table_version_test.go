package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"supg/internal/dataset"
	"supg/internal/engine"
	"supg/internal/metrics"
	"supg/internal/randx"
)

// TestAchievedMetricsUseQueriedTableVersion replaces the queried table
// while a query is blocked in its first oracle call — by a shorter
// re-upload, and by an append that adds positives — through both
// /v1/query and a /v1/jobs worker. Each query must still answer, with
// achieved_precision and achieved_recall evaluated against the table
// version its ids refer to: a shorter table must not be indexed past
// its end, and a grown one must not count positives the answer never
// saw.
func TestAchievedMetricsUseQueriedTableVersion(t *testing.T) {
	short := dataset.Beta(randx.New(2), 10, 0.01, 2)
	extra := dataset.Beta(randx.New(3), 5000, 0.5, 1)
	if extra.PositiveCount() == 0 {
		t.Fatal("the appended records need positives to change recall")
	}
	changes := map[string]func(t *testing.T, s *Server){
		"reupload": func(t *testing.T, s *Server) {
			if w := putBody(t, s, "/v1/datasets/beta", "", csvBytes(t, short)); w.Code != http.StatusCreated {
				t.Fatalf("re-upload: %d %s", w.Code, w.Body.String())
			}
		},
		"append": func(t *testing.T, s *Server) {
			if w := putBody(t, s, "/v1/datasets/beta/append", "", csvBytes(t, extra)); w.Code != http.StatusOK {
				t.Fatalf("append: %d %s", w.Code, w.Body.String())
			}
		},
	}
	// Each path starts its request and returns a func that waits for the
	// answer; only the synchronous query needs a goroutine to block in.
	start := map[string]func(t *testing.T, base string) func() QueryResponse{
		"query": func(t *testing.T, base string) func() QueryResponse {
			raw, err := json.Marshal(QueryRequest{SQL: jobSQL, IncludeIndices: true})
			if err != nil {
				t.Fatal(err)
			}
			type reply struct {
				resp *http.Response
				err  error
			}
			replies := make(chan reply, 1)
			go func() {
				resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(raw))
				replies <- reply{resp, err}
			}()
			return func() QueryResponse {
				r := <-replies
				if r.err != nil {
					t.Fatal(r.err)
				}
				defer r.resp.Body.Close()
				if r.resp.StatusCode != http.StatusOK {
					t.Fatalf("query status %d", r.resp.StatusCode)
				}
				var out QueryResponse
				if err := json.NewDecoder(r.resp.Body).Decode(&out); err != nil {
					t.Fatal(err)
				}
				return out
			}
		},
		"job": func(t *testing.T, base string) func() QueryResponse {
			info := decodeJob(t, postJSON(t, base+"/v1/jobs", QueryRequest{SQL: jobSQL, IncludeIndices: true}), http.StatusAccepted)
			return func() QueryResponse {
				final := waitJob(t, base, info.ID)
				if final.State != "done" || final.Result == nil {
					t.Fatalf("job state %s (err %q)", final.State, final.Error)
				}
				return *final.Result
			}
		},
	}
	for changeName, change := range changes {
		for pathName, startPath := range start {
			t.Run(changeName+"/"+pathName, func(t *testing.T) {
				s, ts, d := newTestServer(t)
				t.Cleanup(func() { s.Shutdown(context.Background()) })
				entered, release := make(chan struct{}), make(chan struct{})
				var once, released sync.Once
				unblock := func() { released.Do(func() { close(release) }) }
				t.Cleanup(unblock) // runs before Shutdown, which drains the job
				s.engine.WrapOracle("beta_oracle", func(inner engine.OracleUDF) engine.OracleUDF {
					return func(i int) (bool, error) {
						once.Do(func() {
							close(entered)
							<-release
						})
						return inner(i)
					}
				})
				finish := startPath(t, ts.URL)
				select {
				case <-entered:
				case <-time.After(30 * time.Second):
					t.Fatal("the query never called the oracle")
				}
				change(t, s)
				unblock()
				resp := finish()
				if len(resp.Indices) != resp.Returned || resp.Returned == 0 {
					t.Fatalf("%d indices for %d returned records", len(resp.Indices), resp.Returned)
				}
				want := metrics.Evaluate(d, resp.Indices)
				if resp.AchievedPrecision != want.Precision || resp.AchievedRecall != want.Recall {
					t.Fatalf("achieved precision/recall %v/%v, want %v/%v against the queried table",
						resp.AchievedPrecision, resp.AchievedRecall, want.Precision, want.Recall)
				}
			})
		}
	}
}
