package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesCode checks that the repository's
// BENCHMARK.json lists exactly the workloads and metrics the coordinator
// reports, with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW []string
	for _, w := range spec.Workloads {
		gotW = append(gotW, w.Name)
	}
	for _, w := range workloads {
		wantW = append(wantW, w.name)
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", gotW, wantW)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		var g, w []metric
		for _, m := range got {
			g = append(g, metric{m.Name, m.Unit})
		}
		w = append(w, want...)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("BENCHMARK.json %s metrics\n%v\ncode reports\n%v", kind, g, w)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
