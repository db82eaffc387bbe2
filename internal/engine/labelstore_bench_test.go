package engine

import (
	"testing"
)

// BenchmarkLabelStoreWarmQuery measures repeated identical queries
// against a warm label store and reports the oracle-UDF call counts:
// the cold run pays the full budget in real oracle calls, every warm
// iteration pays zero (the store answers), which is the whole point of
// cross-query label reuse — see `make bench-labelstore`.
func BenchmarkLabelStoreWarmQuery(b *testing.B) { //supg:benchhygiene-ok trailing StopTimer excludes the metric math from the timed region; no StartTimer follows by design
	e, _, udfCalls := countedEngine(b, Options{})
	if _, err := execute(e, engineRT); err != nil {
		b.Fatal(err)
	}
	cold := udfCalls.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execute(e, engineRT); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	warm := udfCalls.Load() - cold
	b.ReportMetric(float64(cold), "cold-oracle-calls")
	b.ReportMetric(float64(warm)/float64(b.N), "warm-oracle-calls/op")
}

// BenchmarkLabelStoreDisabled is the storeless baseline: every
// iteration re-buys the full oracle budget.
func BenchmarkLabelStoreDisabled(b *testing.B) { //supg:benchhygiene-ok trailing StopTimer excludes the metric math from the timed region; no StartTimer follows by design
	e, _, udfCalls := countedEngine(b, Options{LabelCacheBytes: -1})
	if _, err := execute(e, engineRT); err != nil {
		b.Fatal(err)
	}
	before := udfCalls.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execute(e, engineRT); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := float64(udfCalls.Load()-before) / float64(b.N)
	b.ReportMetric(perOp, "oracle-calls/op")
}
