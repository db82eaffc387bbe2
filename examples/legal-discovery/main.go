// Legal-discovery: the paper's Section 2.3 document-review scenario.
//
// Lawyers must find documents referencing a sensitive legal concept in
// a large corpus. Contract-lawyer review is the oracle and is priced
// per document; a fine-tuned language model provides proxy scores.
// Here the firm wants a precision guarantee: every batch sent to
// (expensive) senior review should be at least 90% relevant, while
// recovering as many relevant documents as possible.
package main

import (
	"context"
	"fmt"
	"log"

	"supg"
	"supg/internal/dataset"
	"supg/internal/randx"
)

func main() {
	// Simulated corpus modeled after the TACRED-style strong-proxy
	// profile: 150k documents, ~2.5% match the concept.
	corpus := dataset.MixtureProfile{
		Name: "discovery_corpus", N: 150_000, TPR: 0.025,
		PosAlpha: 4, PosBeta: 1.2,
		NegAlpha: 0.08, NegBeta: 5,
		HardPos: 0.06, HardNeg: 0.004,
	}.Generate(randx.New(99))
	fmt.Printf("corpus: %d documents, %d relevant (%.2f%%)\n",
		corpus.Len(), corpus.PositiveCount(), 100*corpus.PositiveRate())

	eng, err := supg.OpenEngine(11, supg.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	eng.RegisterDatasetDefaults("discovery_corpus", corpus)

	res, err := eng.ExecuteContext(context.Background(), `
		SELECT * FROM discovery_corpus
		WHERE discovery_corpus_oracle(doc) = true
		ORACLE LIMIT 2000
		USING discovery_corpus_proxy(doc)
		PRECISION TARGET 90%
		WITH PROBABILITY 95%`, supg.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}

	eval := supg.Evaluate(corpus, res.Indices)
	perDoc := 0.08 // contract-review price per document (Scale API rate)
	fmt.Printf("\ndocuments returned:  %d\n", len(res.Indices))
	fmt.Printf("review labels spent: %d (~$%.0f)\n", res.OracleCalls, float64(res.OracleCalls)*perDoc)
	fmt.Printf("achieved precision:  %.2f%% (target 90%%)\n", 100*eval.Precision)
	fmt.Printf("achieved recall:     %.2f%% of all relevant documents\n", 100*eval.Recall)
	fmt.Printf("exhaustive review:   would cost ~$%.0f\n", float64(corpus.Len())*perDoc)

	// If the matter later requires BOTH guarantees (e.g., a court
	// deadline with completeness requirements), the joint query trades
	// unbounded review for certainty:
	joint, err := supg.RunJoint(corpus.Scores(), supg.SimulatedOracle(corpus), supg.JointQuery{
		RecallTarget:    0.90,
		PrecisionTarget: 0.90,
		Probability:     0.95,
		StageBudget:     2000,
	}, supg.WithSeed(5))
	if err != nil {
		log.Fatal(err)
	}
	jEval := supg.Evaluate(corpus, joint.Indices)
	fmt.Printf("\njoint query: %d verified documents, recall %.1f%%, precision %.1f%%, %d total reviews\n",
		len(joint.Indices), 100*jEval.Recall, 100*jEval.Precision, joint.OracleCalls)
}
