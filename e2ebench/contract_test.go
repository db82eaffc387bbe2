package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesOutput pins BENCHMARK.json to the metrics the
// result line carries: every end-to-end name and unit with -trace 0,
// every per-layer one with -trace 1, and the workload list.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := (&summary{}).endToEnd(1)
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the result line %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s/%s: result line has %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(gatedLayers) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the traced result line %d", len(spec.PerLayer), len(gatedLayers))
	}
	for i, m := range spec.PerLayer {
		if i < len(gatedLayers) && (gatedLayers[i].name != m.Name || gatedLayers[i].unit != m.Unit) {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s, code %s/%s", i, m.Name, m.Unit, gatedLayers[i].name, gatedLayers[i].unit)
		}
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads %v, code has %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Errorf("workloads %v, code has %v", names, want)
		}
	}
}
