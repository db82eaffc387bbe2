package supg_test

import (
	"context"
	"fmt"
	"log"

	"supg"
)

// ExampleRun is README's first quick-start snippet: a budgeted recall
// query over a proxy-score slice.
func ExampleRun() {
	ds := supg.GenerateBeta(1, 100_000, 0.01, 2)
	scores := ds.Scores() // proxy confidence per record, in [0,1]
	oracle := supg.OracleFunc(func(i int) (bool, error) {
		return ds.TrueLabel(i), nil // stands in for a human label or big-model call
	})
	res, err := supg.Run(scores, oracle, supg.Query{
		Kind:        supg.RecallQuery,
		Target:      0.90,
		Probability: 0.95,
		OracleLimit: 1000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("oracle calls within budget:", res.OracleCalls <= 1000)
	fmt.Println("recall at least 90%:", supg.Evaluate(ds, res.Indices).Recall >= 0.90)
	// Output:
	// oracle calls within budget: true
	// recall at least 90%: true
}

// ExampleOpenEngine is README's second quick-start snippet: the same
// query in the paper's SQL dialect, through the engine.
func ExampleOpenEngine() {
	ds := supg.GenerateBeta(1, 100_000, 0.01, 2)
	eng, err := supg.OpenEngine(42, supg.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	eng.RegisterDatasetDefaults("video", ds)
	res, err := eng.ExecuteContext(context.Background(), `
	    SELECT * FROM video
	    WHERE video_oracle(frame) = true
	    ORACLE LIMIT 1000
	    USING video_proxy(frame)
	    RECALL TARGET 90%
	    WITH PROBABILITY 95%`, supg.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("oracle calls within budget:", res.OracleCalls <= 1000)
	fmt.Println("recall at least 90%:", supg.Evaluate(ds, res.Indices).Recall >= 0.90)
	// Output:
	// oracle calls within budget: true
	// recall at least 90%: true
}
