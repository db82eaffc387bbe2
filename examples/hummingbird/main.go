// Hummingbird: the paper's Section 2.1 biological-discovery scenario.
//
// Biologists have months of flower-field video and need every frame
// where a hummingbird feeds (rare: <0.1% of frames), with a guarantee
// that at least 90% of the feeding events are found — missing events
// would bias the downstream micro-ecology analysis. A DNN detector
// provides cheap proxy confidences; the biologists themselves are the
// oracle, and they can only label a fixed number of frames.
//
// This example simulates the video with the ImageNet-style rare-event
// profile, issues the paper's example RT query through the SQL
// interface, and reports what the biologists would get.
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
	// ~9 months of video at 60fps is 1.4B frames; we simulate a day's
	// shard. Hummingbird visits are <0.1% of frames, and the DNN proxy
	// separates them well (the regime SUPG is optimized for).
	video := dataset.MixtureProfile{
		Name: "hummingbird_video", N: 500_000, TPR: 0.0008,
		PosAlpha: 6, PosBeta: 1.2,
		NegAlpha: 0.03, NegBeta: 6,
		HardPos: 0.04, HardNeg: 0.0006,
	}.Generate(randx.New(2020))
	fmt.Printf("video shard: %d frames, %d hummingbird frames (%.3f%%)\n",
		video.Len(), video.PositiveCount(), 100*video.PositiveRate())

	eng, err := supg.OpenEngine(7, supg.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	eng.RegisterDatasetDefaults("hummingbird_video", video)

	// The paper's Section 3.1 example query, verbatim syntax.
	res, err := eng.ExecuteContext(context.Background(), `
		SELECT * FROM hummingbird_video
		WHERE hummingbird_video_oracle(frame) = true
		ORACLE LIMIT 10000
		USING hummingbird_video_proxy(frame)
		RECALL TARGET 95%
		WITH PROBABILITY 95%`, supg.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}

	eval := supg.Evaluate(video, res.Indices)
	fmt.Printf("\nframes for review:  %d (%.2f%% of video)\n",
		len(res.Indices), 100*float64(len(res.Indices))/float64(video.Len()))
	fmt.Printf("oracle labels used: %d\n", res.OracleCalls)
	fmt.Printf("achieved recall:    %.2f%% (target 95%%)\n", 100*eval.Recall)
	fmt.Printf("achieved precision: %.2f%% (motion detectors gave ~2%%)\n", 100*eval.Precision)
	fmt.Printf("query time:         %v\n", res.Elapsed)

	fmt.Println("\nThe biologists label 10k frames instead of watching 500k, keep >=95%")
	fmt.Println("of feeding events with high probability, and the returned set is far")
	fmt.Println("more precise than their motion-detector pipeline.")
}
