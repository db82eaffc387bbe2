package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"supg/internal/dataset"
	"supg/internal/oracle"
	"supg/internal/randx"
)

// labelEntryBytes is the label store's per-label charge against
// LabelCacheBytes, so budgets below are stated in labels.
const labelEntryBytes = 48

const statsPT = `
	SELECT * FROM beta
	WHERE beta_oracle(x) = true
	ORACLE LIMIT 1000
	USING beta_proxy(x)
	PRECISION TARGET 90%
	WITH PROBABILITY 95%`

// getStats reads GET /v1/stats; every key is an integer total.
func getStats(t *testing.T, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// checkStatsMatchOwners requires /v1/stats to carry its 25 keys and
// every label-store, WAL, storage and breaker key to equal the value
// its owner reports. It returns the stats it read.
func checkStatsMatchOwners(t *testing.T, s *Server, base string) map[string]int64 {
	t.Helper()
	got := getStats(t, base)
	if len(got) != 25 {
		t.Fatalf("/v1/stats has %d keys, want 25: %v", len(got), got)
	}
	eng := s.Engine()
	ls := eng.LabelStore().Stats()
	want := map[string]int64{
		"label_cache_hits":          ls.Hits,
		"label_cache_misses":        ls.Misses,
		"label_cache_evictions":     ls.Evictions,
		"label_cache_invalidations": ls.Invalidations,
		"wal_records":               ls.WALRecords,
		"wal_replayed":              ls.WALReplayed,
		"breaker_state":             int64(eng.OpenBreakers()),
	}
	if store := eng.Storage(); store != nil {
		st := store.Stats()
		want["storage_segments_persisted"] = st.SegmentsPersisted
		want["storage_tables_recovered"] = int64(st.TablesRecovered)
		want["storage_indexes_recovered"] = int64(st.IndexesRecovered)
		want["storage_segments_recovered"] = int64(st.SegmentsRecovered)
		want["storage_mapped_bytes"] = st.MappedBytes
		want["storage_recovery_ms"] = st.RecoveryElapsed.Milliseconds()
		want["storage_manifest_records"] = st.ManifestRecords
		want["storage_manifest_compactions"] = st.Compactions
		want["storage_degraded"] = int64(len(st.Degraded))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok || g != w {
			t.Errorf("/v1/stats %s = %d (present %v), its owner reports %d", key, g, ok, w)
		}
	}
	return got
}

// TestPersistedWALReplayEvictionsInStats restarts a server on a label
// WAL holding more labels than the new label budget: replay evicts,
// and label_cache_evictions must count those evictions too.
func TestPersistedWALReplayEvictionsInStats(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "labels.wal")
	d := dataset.Beta(randx.New(1), 20000, 0.01, 2)

	s1, err := Open(7, Options{LabelWALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	s1.RegisterDataset("beta", d)
	ts1 := httptest.NewServer(s1)
	if resp, body := postSQL(t, ts1, resilienceRT); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d (%s)", resp.StatusCode, body)
	}
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(7, Options{LabelWALPath: walPath, LabelCacheBytes: 100 * labelEntryBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	want := s2.Engine().LabelStore().Stats().Evictions
	if want == 0 {
		t.Fatal("replay evicted nothing; the label budget does not bind")
	}
	if got := getStats(t, ts2.URL)["label_cache_evictions"]; got != want {
		t.Fatalf("label_cache_evictions = %d, the label store evicted %d", got, want)
	}
}

// TestPersistStatsReadFromOwners runs a persisted workload — a
// restart that recovers the table, its index and its labels, then a
// query, an append, the query that flushes the grown index, and a
// circuit breaker tripped open and closed again by a probe — and
// checks every owned /v1/stats key against its owner along the way.
func TestPersistStatsReadFromOwners(t *testing.T) {
	dir := t.TempDir()
	full := dataset.Beta(randx.New(1), 24000, 0.01, 2)
	head, tail := full.Slice(0, 20000), full.Slice(20000, full.Len())
	opts := Options{
		PersistDir:       dir,
		LabelWALPath:     filepath.Join(dir, "labels.wal"),
		LabelCacheBytes:  300 * labelEntryBytes,
		OracleRetries:    1,
		OracleBackoff:    time.Nanosecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Millisecond,
	}

	s1, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	s1.RegisterDataset("beta", head)
	ts1 := httptest.NewServer(s1)
	if resp, body := postSQL(t, ts1, resilienceRT); resp.StatusCode != http.StatusOK {
		t.Fatalf("first boot query: %d (%s)", resp.StatusCode, body)
	}
	checkStatsMatchOwners(t, s1, ts1.URL)
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
	var down atomic.Bool
	s2.Engine().RegisterOracle("beta_oracle", func(i int) (bool, error) {
		if down.Load() {
			return false, oracle.Transient(errors.New("backend down"))
		}
		return full.TrueLabel(i), nil
	})
	checkStatsMatchOwners(t, s2, ts2.URL)

	if resp, body := postSQL(t, ts2, resilienceRT); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered query: %d (%s)", resp.StatusCode, body)
	}
	if w := putBody(t, s2, "/v1/datasets/beta/append", "", csvBytes(t, tail)); w.Code != http.StatusOK {
		t.Fatalf("append: %d %s", w.Code, w.Body.String())
	}
	if resp, body := postSQL(t, ts2, resilienceRT); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after append: %d (%s)", resp.StatusCode, body)
	}
	checkStatsMatchOwners(t, s2, ts2.URL)

	down.Store(true)
	if resp, body := postSQL(t, ts2, statsPT); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query against a dead backend: %d (%s), want 503", resp.StatusCode, body)
	}
	if open := checkStatsMatchOwners(t, s2, ts2.URL)["breaker_state"]; open != 1 {
		t.Fatalf("breaker_state = %d after the backend died, want 1", open)
	}
	down.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := postSQL(t, ts2, statsPT)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusServiceUnavailable || time.Now().After(deadline) {
			t.Fatalf("query after the backend recovered: %d (%s)", resp.StatusCode, body)
		}
	}

	stats := checkStatsMatchOwners(t, s2, ts2.URL)
	for _, key := range []string{
		"label_cache_hits", "label_cache_misses", "label_cache_evictions", "label_cache_invalidations",
		"wal_records", "wal_replayed", "storage_segments_persisted", "storage_tables_recovered",
		"storage_indexes_recovered", "storage_segments_recovered", "storage_manifest_records",
		"oracle_retries", "queries",
	} {
		if stats[key] == 0 {
			t.Errorf("%s = 0: the workload did not exercise it", key)
		}
	}
	if stats["breaker_state"] != 0 {
		t.Errorf("breaker_state = %d after a successful probe, want 0", stats["breaker_state"])
	}
}

// TestFirstUseCorruptionInStats corrupts a persisted segment file
// between boots. Boot stages the index unread, so storage_degraded
// reads 0; the first query finds the corruption, rebuilds the index and
// answers, and /v1/stats then reads 1.
func TestFirstUseCorruptionInStats(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(1), 20000, 0.01, 2)
	opts := Options{PersistDir: dir}
	s1, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	s1.RegisterDataset("beta", d)
	ts1 := httptest.NewServer(s1)
	if resp, body := postSQL(t, ts1, statsPT); resp.StatusCode != http.StatusOK {
		t.Fatalf("first boot query: %d (%s)", resp.StatusCode, body)
	}
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segment files %v (%v), want one", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	if got := checkStatsMatchOwners(t, s2, ts2.URL)["storage_degraded"]; got != 0 {
		t.Fatalf("storage_degraded = %d at boot, want 0: boot reads no index file", got)
	}
	if resp, body := postSQL(t, ts2, statsPT); resp.StatusCode != http.StatusOK {
		t.Fatalf("query over the corrupt index: %d (%s)", resp.StatusCode, body)
	}
	if got := checkStatsMatchOwners(t, s2, ts2.URL)["storage_degraded"]; got != 1 {
		t.Fatalf("storage_degraded = %d after the first query, want 1", got)
	}
}
