package engine

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"supg/internal/dataset"
	"supg/internal/query"
	"supg/internal/randx"
)

// TestConcurrentAppendQueryReregister is the torn-state stress test
// for the segmented index cache, meant to run under -race (CI does):
// queriers, an appender, and a re-registrar hammer one table
// concurrently. The invariants checked are the ones the publish-lock
// design promises:
//
//   - no data race (the race detector's job) and no panic;
//   - every successful query returns a sorted id list whose ids are
//     valid for SOME published table state (never beyond the largest
//     length ever registered or grown);
//   - appends never resurrect stale indexes: after the final append
//     settles, a query sees exactly the final table length.
func TestConcurrentAppendQueryReregister(t *testing.T) {
	const (
		baseN    = 4000
		appends  = 8
		appendN  = 500
		queriers = 4
	)
	base := dataset.Beta(randx.New(404), baseN, 0.01, 2)
	e := openEngine(t, 11, Options{SegmentSize: 512})
	e.RegisterDatasetDefaults("t", base)

	q, err := query.Parse(`SELECT * FROM t WHERE t_oracle(x) ORACLE LIMIT 200 USING t_proxy(x) RECALL TARGET 90% WITH PROBABILITY 95%`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := query.BuildPlan(q, query.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The largest id space any registration or append ever published;
	// results may lag behind the latest state but can never exceed it.
	maxLen := atomic.Int64{}
	maxLen.Store(baseN)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := executePlan(e, plan)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if !sort.IntsAreSorted(res.Indices) {
					t.Error("query returned unsorted indices")
					return
				}
				if n := len(res.Indices); n > 0 {
					if last := res.Indices[n-1]; int64(last) >= maxLen.Load() {
						t.Errorf("returned id %d beyond any published table length %d", last, maxLen.Load())
						return
					}
				}
			}
		}()
	}

	// The appender interleaves with a re-registrar resetting the table
	// to the base dataset (dropping every incremental entry).
	for i := 0; i < appends; i++ {
		extra := dataset.Beta(randx.New(uint64(1000+i)), appendN, 0.01, 2)
		if i == appends/2 {
			e.RegisterDatasetDefaults("t", base)
			maxLen.Store(int64(baseN + appends*appendN)) // conservative bound
		}
		combined, err := e.AppendTable("t", extra)
		if err != nil {
			t.Fatal(err)
		}
		for {
			cur := maxLen.Load()
			if int64(combined.Len()) <= cur || maxLen.CompareAndSwap(cur, int64(combined.Len())) {
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Settled state: the next queries must see exactly the final table —
	// a stale pre-re-registration index would have a longer id space,
	// a dropped append a shorter one.
	finalLen := baseN + (appends-appends/2)*appendN
	res, err := executePlan(e, plan)
	if err != nil {
		t.Fatal(err)
	}
	e.mu.RLock()
	got := e.tables["t"].Len()
	e.mu.RUnlock()
	if got != finalLen {
		t.Fatalf("settled table has %d records, want %d", got, finalLen)
	}
	for _, id := range res.Indices {
		if id < 0 || id >= finalLen {
			t.Fatalf("settled query returned id %d outside [0, %d)", id, finalLen)
		}
	}
}
