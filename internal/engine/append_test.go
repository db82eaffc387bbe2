package engine

import (
	"strings"
	"testing"

	"supg/internal/dataset"
	"supg/internal/randx"
)

const appendTestSQL = `SELECT * FROM t WHERE t_oracle(x) ORACLE LIMIT 500 USING t_proxy(x) RECALL TARGET 90% WITH PROBABILITY 95%`

func betaPair(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	base := dataset.Beta(randx.New(61), 30000, 0.01, 2)
	extra := dataset.Beta(randx.New(62), 10000, 0.01, 2)
	return base, extra
}

// TestAppendTableMatchesFreshRegistration: a table grown by AppendTable
// must answer queries byte-identically to a fresh engine registered
// with the combined dataset — the guarantees are a function of the
// data, not of how it arrived.
func TestAppendTableMatchesFreshRegistration(t *testing.T) {
	base, extra := betaPair(t)

	grown := openEngine(t, 7, Options{SegmentSize: 4096})
	grown.RegisterDatasetDefaults("t", base)
	if _, err := execute(grown, appendTestSQL); err != nil {
		t.Fatal(err)
	}
	combined, err := grown.AppendTable("t", extra)
	if err != nil {
		t.Fatal(err)
	}
	if combined.Len() != base.Len()+extra.Len() {
		t.Fatalf("combined has %d records, want %d", combined.Len(), base.Len()+extra.Len())
	}
	grownRes, err := execute(grown, appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !grownRes.IndexBuilt {
		t.Fatal("first query after append must extend the index")
	}
	if grownRes.ProxyCalls != extra.Len() {
		t.Fatalf("append path evaluated the proxy %d times, want only the %d appended records",
			grownRes.ProxyCalls, extra.Len())
	}

	fresh := openEngine(t, 7, Options{SegmentSize: 4096})
	fresh.RegisterDatasetDefaults("t", base.Append(extra))
	freshRes, err := execute(fresh, appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if grownRes.Tau != freshRes.Tau {
		t.Fatalf("tau %v (append) vs %v (fresh)", grownRes.Tau, freshRes.Tau)
	}
	if grownRes.OracleCalls != freshRes.OracleCalls {
		t.Fatalf("oracle calls %d vs %d", grownRes.OracleCalls, freshRes.OracleCalls)
	}
	if len(grownRes.Indices) != len(freshRes.Indices) {
		t.Fatalf("%d records (append) vs %d (fresh)", len(grownRes.Indices), len(freshRes.Indices))
	}
	for i := range freshRes.Indices {
		if grownRes.Indices[i] != freshRes.Indices[i] {
			t.Fatalf("record %d differs: %d vs %d", i, grownRes.Indices[i], freshRes.Indices[i])
		}
	}

	// Steady state after the extension: cache hit, no proxy work.
	again, err := execute(grown, appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if again.IndexBuilt || again.ProxyCalls != 0 {
		t.Fatalf("post-append steady state: IndexBuilt=%v ProxyCalls=%d, want cache hit", again.IndexBuilt, again.ProxyCalls)
	}
}

// TestAppendTableBeforeFirstQuery: appending to a never-queried table
// charges the first query for the full combined scan — base through
// the parent entry, extra through the append entry.
func TestAppendTableBeforeFirstQuery(t *testing.T) {
	base, extra := betaPair(t)
	e := openEngine(t, 7, Options{})
	e.RegisterDatasetDefaults("t", base)
	if _, err := e.AppendTable("t", extra); err != nil {
		t.Fatal(err)
	}
	res, err := execute(e, appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexBuilt || res.ProxyCalls != base.Len()+extra.Len() {
		t.Fatalf("IndexBuilt=%v ProxyCalls=%d, want full %d-record build",
			res.IndexBuilt, res.ProxyCalls, base.Len()+extra.Len())
	}
}

// TestAppendTableChained: several appends before the next query chain
// incremental entries; the query pays for exactly the un-indexed tail.
func TestAppendTableChained(t *testing.T) {
	base, extra := betaPair(t)
	e := openEngine(t, 7, Options{})
	e.RegisterDatasetDefaults("t", base)
	if _, err := execute(e, appendTestSQL); err != nil {
		t.Fatal(err)
	}
	half := extra.Len() / 2
	first, second := extra.Slice(0, half), extra.Slice(half, extra.Len())
	if _, err := e.AppendTable("t", first); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendTable("t", second); err != nil {
		t.Fatal(err)
	}
	res, err := execute(e, appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexBuilt || res.ProxyCalls != extra.Len() {
		t.Fatalf("IndexBuilt=%v ProxyCalls=%d, want the %d appended records only",
			res.IndexBuilt, res.ProxyCalls, extra.Len())
	}
}

// TestAppendTableErrors covers the input contract: unknown tables and
// empty appends are rejected.
func TestAppendTableErrors(t *testing.T) {
	base, extra := betaPair(t)
	e := openEngine(t, 1, Options{})
	if _, err := e.AppendTable("missing", extra); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("appending to unknown table: err = %v", err)
	}
	e.RegisterDatasetDefaults("t", base)
	if _, err := e.AppendTable("t", nil); err == nil {
		t.Fatal("nil append must be rejected")
	}
}

// TestReregistrationAfterAppendRebuildsFully: re-registering the
// table after appends must drop every incremental entry — the next
// query rebuilds from the new registration, never from stale segments.
func TestReregistrationAfterAppendRebuildsFully(t *testing.T) {
	base, extra := betaPair(t)
	e := openEngine(t, 7, Options{})
	e.RegisterDatasetDefaults("t", base)
	if _, err := execute(e, appendTestSQL); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendTable("t", extra); err != nil {
		t.Fatal(err)
	}
	d2 := dataset.Beta(randx.New(99), 5000, 1, 1)
	e.RegisterDatasetDefaults("t", d2)
	res, err := execute(e, appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexBuilt || res.ProxyCalls != d2.Len() {
		t.Fatalf("IndexBuilt=%v ProxyCalls=%d, want a %d-record rebuild from the new registration",
			res.IndexBuilt, res.ProxyCalls, d2.Len())
	}
}
