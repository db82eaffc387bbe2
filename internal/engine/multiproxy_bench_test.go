package engine

import (
	"testing"
)

// BenchmarkMultiProxyFusedWarmQuery prices the fused hot path the way
// bench-labelstore prices label reuse: one cold run builds the fused
// index (two proxy scans + logistic calibration through the budgeted
// oracle and label store), then every warm iteration reuses the cached
// fused index and warm labels — reported warm-oracle-calls/op and
// warm-calibration-calls/op are both 0. See `make bench-multiproxy`.
func BenchmarkMultiProxyFusedWarmQuery(b *testing.B) { //supg:benchhygiene-ok trailing StopTimer excludes the metric math from the timed region; no StartTimer follows by design
	e, _, udfCalls := fusedEngine(b, Options{})
	cold, err := execute(e, fusedLogisticRT)
	if err != nil {
		b.Fatal(err)
	}
	coldUDF := udfCalls.Load()
	b.ReportAllocs()
	b.ResetTimer()
	warmCalib := 0
	for i := 0; i < b.N; i++ {
		res, err := execute(e, fusedLogisticRT)
		if err != nil {
			b.Fatal(err)
		}
		warmCalib += res.CalibrationCalls
	}
	b.StopTimer()
	b.ReportMetric(float64(cold.CalibrationCalls), "cold-calibration-calls")
	b.ReportMetric(float64(cold.OracleCalls), "cold-oracle-calls")
	b.ReportMetric(float64(udfCalls.Load()-coldUDF)/float64(b.N), "warm-oracle-calls/op")
	b.ReportMetric(float64(warmCalib)/float64(b.N), "warm-calibration-calls/op")
}

// BenchmarkMultiProxyWarmRecalibration isolates the calibration-reuse
// claim: each iteration re-registers a member proxy (dropping the
// fused index but not the stored labels) and re-runs the query, so the
// engine re-fuses and recalibrates every time — yet the recalibration
// is served entirely by the cross-query label store, and the oracle UDF
// is never invoked again (warm-oracle-calls/op = 0 in charged mode).
func BenchmarkMultiProxyWarmRecalibration(b *testing.B) { //supg:benchhygiene-ok trailing StopTimer excludes the metric math from the timed region; no StartTimer follows by design
	e, d, udfCalls := fusedEngine(b, Options{})
	if _, err := execute(e, fusedLogisticRT); err != nil {
		b.Fatal(err)
	}
	coldUDF := udfCalls.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RegisterProxy("video_proxy", func(j int) float64 { return d.Score(j) })
		res, err := execute(e, fusedLogisticRT)
		if err != nil {
			b.Fatal(err)
		}
		if res.CalibrationCacheHits != res.CalibrationCalls {
			b.Fatalf("recalibration missed the label store: %d of %d", res.CalibrationCacheHits, res.CalibrationCalls)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(udfCalls.Load()-coldUDF)/float64(b.N), "warm-oracle-calls/op")
}

// BenchmarkMultiProxyFusedVsBestSingle compares a warm fused logistic
// query against the best single-proxy query at the same budget — the
// per-query latency cost of multi-proxy fusion once the index is built
// (it should be none: both paths run the same single-column hot path).
func BenchmarkMultiProxyFusedVsBestSingle(b *testing.B) {
	single := `
		SELECT * FROM video
		WHERE video_oracle(frame) = true
		ORACLE LIMIT 800
		USING video_proxy(frame)
		RECALL TARGET 90%
		WITH PROBABILITY 95%`
	for _, bench := range []struct{ name, sql string }{
		{"fused-logistic", fusedLogisticRT},
		{"best-single", single},
	} {
		b.Run(bench.name, func(b *testing.B) {
			e, _, _ := fusedEngine(b, Options{})
			if _, err := execute(e, bench.sql); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := execute(e, bench.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
