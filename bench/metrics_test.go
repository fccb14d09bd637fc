package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONDeclaresWhatTheBenchmarkMeasures keeps the
// repository's BENCHMARK.json and this package's metric tables in step:
// the runner checks each run's metrics against the declaration.
func TestBenchmarkJSONDeclaresWhatTheBenchmarkMeasures(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nbenchmark reports\n%v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nbenchmark reports\n%v", decl.PerLayer, perLayer())
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
