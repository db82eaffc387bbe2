// Multiproxy: answer one SUPG query with several proxy models — the
// paper's Section 8 extension — through the SQL engine's FUSE clause.
//
// Two deliberately mediocre proxies observe complementary halves of the
// signal (labels are Bernoulli(a*b), each proxy sees only a or only b).
// A logistic fusion calibrated on a small oracle-labeled sample
// combines them into one score column, which the engine indexes once
// and caches for every later query of the same score source; the
// calibration labels flow through the cross-query label store, so even
// a forced rebuild never re-buys them.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"supg"
)

func main() {
	// Synthetic complementary-proxy data: two independent uniform
	// signals; a record is positive with probability a*b, so neither
	// signal alone ranks positives well.
	const n = 100_000
	r := rand.New(rand.NewPCG(7, 11))
	a := make([]float64, n)
	b := make([]float64, n)
	labels := make([]bool, n)
	positives := 0
	for i := range a {
		a[i], b[i] = r.Float64(), r.Float64()
		labels[i] = r.Float64() < a[i]*b[i]
		if labels[i] {
			positives++
		}
	}
	ds, err := supg.NewDataset("readings", a, labels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d records, %d positives (%.1f%%)\n", n, positives, 100*float64(positives)/n)

	eng, err := supg.OpenEngine(42, supg.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	eng.RegisterTable("readings", ds)
	eng.RegisterOracle("truth", func(i int) (bool, error) { return labels[i], nil })
	eng.RegisterProxy("sensor_a", func(i int) float64 { return a[i] })
	eng.RegisterProxy("sensor_b", func(i int) float64 { return b[i] })

	run := func(name, using string) *supg.QueryResult {
		sql := `
			SELECT * FROM readings
			WHERE truth(x) = true
			ORACLE LIMIT 2000
			USING ` + using + `
			RECALL TARGET 90%
			WITH PROBABILITY 95%`
		res, err := eng.ExecuteContext(context.Background(), sql, supg.ExecOptions{})
		if err != nil {
			log.Fatal(err)
		}
		eval := supg.Evaluate(ds, res.Indices)
		fmt.Printf("%-22s returned %6d | recall %.1f%% | precision %.1f%% | oracle %d | calibration %d\n",
			name, len(res.Indices), 100*eval.Recall, 100*eval.Precision, res.OracleCalls, res.CalibrationCalls)
		return res
	}

	// Each single proxy must cast a very wide net to hit 90% recall.
	run("single sensor_a:", "sensor_a(x)")
	run("single sensor_b:", "sensor_b(x)")

	// The fused source ranks by both signals at once. The first query
	// scans both proxies, calibrates the stacker on 200 oracle labels,
	// and caches the fused index.
	run("fused logistic:", "FUSE(logistic, sensor_a(x), sensor_b(x)) CALIBRATE 200")

	// A repeat is pure cache: no proxy calls, no calibration, identical
	// answer.
	again := run("fused (warm):", "FUSE(logistic, sensor_a(x), sensor_b(x)) CALIBRATE 200")
	if again.IndexBuilt || again.ProxyCalls != 0 {
		log.Fatal("warm fused query unexpectedly rebuilt the index")
	}

	// Label-free fusions need no calibration at all and extend
	// incrementally on table appends.
	run("fused mean:", "FUSE(mean, sensor_a(x), sensor_b(x))")
}
