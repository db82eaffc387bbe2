package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"supg/internal/dataset"
	"supg/internal/query"
	"supg/internal/randx"
)

// fusedEngine returns an engine over one table with two registered
// proxy views of the same signal — the raw calibrated score and its
// square root — plus a counter of real oracle UDF invocations.
func fusedEngine(t testing.TB, opts Options) (*Engine, *dataset.Dataset, *atomic.Int64) {
	t.Helper()
	d := dataset.Beta(randx.New(3), 20000, 0.05, 1)
	e := openEngine(t, 42, opts)
	var udfCalls atomic.Int64
	e.RegisterTable("video", d)
	e.RegisterProxy("video_proxy", func(i int) float64 { return d.Score(i) })
	e.RegisterProxy("video_proxy_b", func(i int) float64 { return math.Sqrt(d.Score(i)) })
	e.RegisterOracle("video_oracle", func(i int) (bool, error) {
		udfCalls.Add(1)
		return d.TrueLabel(i), nil
	})
	return e, d, &udfCalls
}

const fusedMeanRT = `
SELECT * FROM video
WHERE video_oracle(frame) = true
ORACLE LIMIT 800
USING FUSE(mean, video_proxy(frame), video_proxy_b(frame))
RECALL TARGET 90%
WITH PROBABILITY 95%`

const fusedLogisticRT = `
SELECT * FROM video
WHERE video_oracle(frame) = true
ORACLE LIMIT 800
USING FUSE(logistic, video_proxy(frame), video_proxy_b(frame)) CALIBRATE 100
RECALL TARGET 90%
WITH PROBABILITY 95%`

func sameResult(t *testing.T, label string, a, b *QueryResult) {
	t.Helper()
	if !sameIndices(a.Indices, b.Indices) {
		t.Errorf("%s: indices differ (%d vs %d records)", label, len(a.Indices), len(b.Indices))
	}
	if a.Tau != b.Tau {
		t.Errorf("%s: tau %v vs %v", label, a.Tau, b.Tau)
	}
	if a.OracleCalls != b.OracleCalls {
		t.Errorf("%s: oracle calls %d vs %d", label, a.OracleCalls, b.OracleCalls)
	}
}

// TestFusedSingleMemberByteIdenticalToLegacy pins the refactor's
// degenerate case: a one-proxy FUSE(mean|max, p(col)) source is
// normalized to the classic single-proxy form, so it produces
// byte-identical Indices/Tau/OracleCalls to the legacy USING p(col)
// path — same plan text, same random stream, same index cache slot.
func TestFusedSingleMemberByteIdenticalToLegacy(t *testing.T) {
	legacySQL := `
		SELECT * FROM video
		WHERE video_oracle(frame) = true
		ORACLE LIMIT 800
		USING video_proxy(frame)
		RECALL TARGET 90%
		WITH PROBABILITY 95%`
	for _, kind := range []string{"mean", "max"} {
		fusedSQL := strings.Replace(legacySQL,
			"USING video_proxy(frame)",
			"USING FUSE("+kind+", video_proxy(frame))", 1)

		e1, _, _ := fusedEngine(t, Options{})
		legacy, err := execute(e1, legacySQL)
		if err != nil {
			t.Fatal(err)
		}
		e2, _, _ := fusedEngine(t, Options{})
		fused, err := execute(e2, fusedSQL)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, kind+" vs legacy (fresh engines)", legacy, fused)
		if fused.Fusion != "" {
			t.Errorf("%s: degenerate fused source reported fusion %q", kind, fused.Fusion)
		}

		// Same engine: the two spellings share one index cache slot.
		again, err := execute(e1, fusedSQL)
		if err != nil {
			t.Fatal(err)
		}
		if again.IndexBuilt || again.ProxyCalls != 0 {
			t.Errorf("%s: degenerate FUSE rebuilt the index (built=%v proxyCalls=%d)", kind, again.IndexBuilt, again.ProxyCalls)
		}
		sameResult(t, kind+" cache-slot reuse", legacy, again)
	}
}

// TestFusedIndexCachedAcrossQueries asserts the second identical
// multi-proxy query rebuilds nothing — no proxy calls, no calibration
// — and returns byte-identical results (charged label reuse keeps the
// budget trace of the estimation phase identical too).
func TestFusedIndexCachedAcrossQueries(t *testing.T) {
	for _, sql := range []string{fusedMeanRT, fusedLogisticRT} {
		e, d, _ := fusedEngine(t, Options{})
		cold, err := execute(e, sql)
		if err != nil {
			t.Fatal(err)
		}
		if !cold.IndexBuilt {
			t.Fatal("first query did not build the fused index")
		}
		if cold.ProxyCalls != 2*d.Len() {
			t.Errorf("fused build proxy calls %d, want %d (2 members x %d records)", cold.ProxyCalls, 2*d.Len(), d.Len())
		}
		warm, err := execute(e, sql)
		if err != nil {
			t.Fatal(err)
		}
		if warm.IndexBuilt || warm.ProxyCalls != 0 || warm.CalibrationCalls != 0 {
			t.Errorf("warm query rebuilt: built=%v proxy=%d calib=%d", warm.IndexBuilt, warm.ProxyCalls, warm.CalibrationCalls)
		}
		sameResult(t, "cold vs warm", cold, warm)
	}
}

// TestFusedStatsReporting checks the fusion metadata surfaced on the
// engine result: strategy name, calibration spend for logistic, zero
// calibration for label-free fusions.
func TestFusedStatsReporting(t *testing.T) {
	e, _, _ := fusedEngine(t, Options{})
	mean, err := execute(e, fusedMeanRT)
	if err != nil {
		t.Fatal(err)
	}
	if mean.Fusion != "mean" || mean.CalibrationCalls != 0 || mean.CalibrationCacheHits != 0 {
		t.Errorf("mean stats %q %d %d", mean.Fusion, mean.CalibrationCalls, mean.CalibrationCacheHits)
	}
	logi, err := execute(e, fusedLogisticRT)
	if err != nil {
		t.Fatal(err)
	}
	if logi.Fusion != "logistic" {
		t.Errorf("fusion %q", logi.Fusion)
	}
	if logi.CalibrationCalls != 100 {
		t.Errorf("calibration calls %d, want the CALIBRATE budget 100", logi.CalibrationCalls)
	}
	if logi.CalibrationCacheHits != 0 {
		t.Errorf("cold calibration reported %d store hits", logi.CalibrationCacheHits)
	}
}

// TestWarmLogisticCalibrationZeroUDFCalls is the acceptance pin for
// calibration label reuse: re-registering a member proxy drops the
// fused index but not the label store, so the rebuild recalibrates
// entirely from stored labels — zero inner oracle UDF calls — and
// returns byte-identical results.
func TestWarmLogisticCalibrationZeroUDFCalls(t *testing.T) {
	e, d, udfCalls := fusedEngine(t, Options{})
	cold, err := execute(e, fusedLogisticRT)
	if err != nil {
		t.Fatal(err)
	}
	coldUDF := udfCalls.Load()
	if coldUDF == 0 {
		t.Fatal("cold run made no oracle UDF calls")
	}

	// Same functions, fresh registration: the fused index is dropped,
	// stored labels survive.
	e.RegisterProxy("video_proxy", func(i int) float64 { return d.Score(i) })

	warm, err := execute(e, fusedLogisticRT)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.IndexBuilt {
		t.Fatal("re-registration did not drop the fused index")
	}
	if got := udfCalls.Load() - coldUDF; got != 0 {
		t.Errorf("warm rebuild made %d oracle UDF calls, want 0", got)
	}
	if warm.CalibrationCalls != cold.CalibrationCalls {
		t.Errorf("warm calibration charged %d calls, cold charged %d", warm.CalibrationCalls, cold.CalibrationCalls)
	}
	if warm.CalibrationCacheHits != warm.CalibrationCalls {
		t.Errorf("warm calibration: %d of %d labels from the store", warm.CalibrationCacheHits, warm.CalibrationCalls)
	}
	sameResult(t, "cold vs warm rebuild", cold, warm)
}

// TestFusedLogisticCalibrationOneWALBatch pins the calibration sample
// to one oracle batch on a WAL-backed engine: building the fused index
// makes at most one WAL fsync, and the fused column is bit-identical to
// the one the per-label calibration loop produced (the digest below
// was recorded from that loop).
func TestFusedLogisticCalibrationOneWALBatch(t *testing.T) {
	e, _, udfCalls := fusedEngine(t, Options{LabelWALPath: filepath.Join(t.TempDir(), "labels.wal")})
	defer e.Close()
	q, err := query.Parse(fusedLogisticRT)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := query.BuildPlan(q, query.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entry, _, err := e.tableIndex(plan)
	if err != nil {
		t.Fatal(err)
	}
	st := e.LabelStore().Stats()
	if st.WALSyncs > 1 {
		t.Errorf("calibration made %d WAL fsyncs, want at most 1", st.WALSyncs)
	}
	if udfCalls.Load() != 100 || st.WALRecords != 101 {
		t.Errorf("calibration bought %d labels in %d WAL records, want 100 in 101 (def + labels)", udfCalls.Load(), st.WALRecords)
	}
	h := sha256.New()
	var buf [8]byte
	for _, s := range entry.res.ix.Scores() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s))
		h.Write(buf[:])
	}
	const want = "ae1a9f26395a75a9ab09891c754b8945088ee8b5554a39f0fdb17793c11a368b"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("fused column digest %s, want %s", got, want)
	}
}

// TestAppendExtendsFusedIndexIncrementally asserts a label-free fused
// index extends with only the appended records' proxy evaluations —
// and that the extended index answers identically to one built from
// scratch over the combined table.
func TestAppendExtendsFusedIndexIncrementally(t *testing.T) {
	full := dataset.Beta(randx.New(9), 24000, 0.05, 1)
	head, tail := full.Slice(0, 20000), full.Slice(20000, 24000)

	build := func(d *dataset.Dataset) *Engine {
		e := openEngine(t, 42, Options{})
		e.RegisterTable("video", d)
		e.RegisterProxy("video_proxy", func(i int) float64 { return full.Score(i) })
		e.RegisterProxy("video_proxy_b", func(i int) float64 { return math.Sqrt(full.Score(i)) })
		e.RegisterOracle("video_oracle", func(i int) (bool, error) { return full.TrueLabel(i), nil })
		return e
	}

	inc := build(head)
	if _, err := execute(inc, fusedMeanRT); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.AppendTable("video", tail); err != nil {
		t.Fatal(err)
	}
	after, err := execute(inc, fusedMeanRT)
	if err != nil {
		t.Fatal(err)
	}
	if !after.IndexBuilt {
		t.Fatal("append did not republish the fused index entry")
	}
	if want := 2 * tail.Len(); after.ProxyCalls != want {
		t.Errorf("incremental extension cost %d proxy calls, want %d (members x appended only)", after.ProxyCalls, want)
	}

	fresh := build(full)
	scratch, err := execute(fresh, fusedMeanRT)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "incremental vs from-scratch", scratch, after)
}

// TestAppendDropsCalibratedFusedIndex: appends change the population a
// logistic stacker is calibrated against, so the entry is dropped and
// the next query re-fuses the whole table (with warm labels).
func TestAppendDropsCalibratedFusedIndex(t *testing.T) {
	full := dataset.Beta(randx.New(11), 24000, 0.05, 1)
	head, tail := full.Slice(0, 20000), full.Slice(20000, 24000)

	// UDFs cover the full id range up front, so the append only has to
	// extend the table registration.
	e := openEngine(t, 42, Options{})
	e.RegisterTable("video", head)
	e.RegisterProxy("video_proxy", func(i int) float64 { return full.Score(i) })
	e.RegisterProxy("video_proxy_b", func(i int) float64 { return math.Sqrt(full.Score(i)) })
	e.RegisterOracle("video_oracle", func(i int) (bool, error) { return full.TrueLabel(i), nil })

	if _, err := execute(e, fusedLogisticRT); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendTable("video", tail); err != nil {
		t.Fatal(err)
	}
	res, err := execute(e, fusedLogisticRT)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexBuilt {
		t.Fatal("logistic fused index survived an append")
	}
	if want := 2 * full.Len(); res.ProxyCalls != want {
		t.Errorf("rebuild cost %d proxy calls, want full re-fuse %d", res.ProxyCalls, want)
	}
	if res.CalibrationCalls == 0 {
		t.Error("rebuild skipped recalibration")
	}
}

// TestFusedInvalidation covers the invalidation matrix: any member
// proxy re-registration drops a fused index; oracle re-registration
// drops calibrated fusions but spares label-free ones.
func TestFusedInvalidation(t *testing.T) {
	e, d, _ := fusedEngine(t, Options{})
	if _, err := execute(e, fusedMeanRT); err != nil {
		t.Fatal(err)
	}
	if _, err := execute(e, fusedLogisticRT); err != nil {
		t.Fatal(err)
	}

	// Oracle re-registration: logistic drops, mean survives.
	e.RegisterOracle("video_oracle", func(i int) (bool, error) { return d.TrueLabel(i), nil })
	mean, err := execute(e, fusedMeanRT)
	if err != nil {
		t.Fatal(err)
	}
	if mean.IndexBuilt {
		t.Error("oracle re-registration dropped a label-free fused index")
	}
	logi, err := execute(e, fusedLogisticRT)
	if err != nil {
		t.Fatal(err)
	}
	if !logi.IndexBuilt {
		t.Error("oracle re-registration kept a calibrated fused index")
	}

	// Re-registering the second member drops both fused indexes.
	e.RegisterProxy("video_proxy_b", func(i int) float64 { return math.Sqrt(d.Score(i)) })
	mean, err = execute(e, fusedMeanRT)
	if err != nil {
		t.Fatal(err)
	}
	if !mean.IndexBuilt {
		t.Error("member proxy re-registration kept the mean fused index")
	}
}

// TestFusedLogisticWithLabelStoreDisabled: a disabled label store must
// not break calibration — the budgeted calibration oracle simply runs
// storeless. (Regression: the typed-nil *labelstore.Cache used to
// defeat WithStore's nil guard and panic the build goroutine.)
func TestFusedLogisticWithLabelStoreDisabled(t *testing.T) {
	e, _, udfCalls := fusedEngine(t, Options{LabelCacheBytes: -1})
	res, err := execute(e, fusedLogisticRT)
	if err != nil {
		t.Fatal(err)
	}
	if res.CalibrationCalls != 100 || res.CalibrationCacheHits != 0 {
		t.Errorf("storeless calibration stats %d/%d", res.CalibrationCalls, res.CalibrationCacheHits)
	}
	if udfCalls.Load() == 0 {
		t.Error("no oracle UDF calls recorded")
	}
}

// TestFusedUnknownMemberProxy: every member must be registered.
func TestFusedUnknownMemberProxy(t *testing.T) {
	e, _, _ := fusedEngine(t, Options{})
	bad := strings.Replace(fusedMeanRT, "video_proxy_b", "mystery", 1)
	_, err := execute(e, bad)
	if err == nil || !strings.Contains(err.Error(), `"mystery"`) {
		t.Fatalf("missing member proxy error = %v", err)
	}
}

// TestFusedJointQuery runs a fused joint-target plan end to end.
func TestFusedJointQuery(t *testing.T) {
	e, d, _ := fusedEngine(t, Options{})
	res, err := execute(e, `
		SELECT * FROM video
		WHERE video_oracle(frame) = true
		USING FUSE(logistic, video_proxy(frame), video_proxy_b(frame)) CALIBRATE 60
		RECALL TARGET 80%
		PRECISION TARGET 80%
		WITH PROBABILITY 95%`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fusion != "logistic" || res.CalibrationCalls != 60 {
		t.Errorf("joint fused stats %q %d", res.Fusion, res.CalibrationCalls)
	}
	if len(res.Indices) == 0 {
		t.Error("joint fused query returned nothing")
	}
	for _, i := range res.Indices {
		if i < 0 || i >= d.Len() {
			t.Fatalf("index %d out of range", i)
		}
	}
}
