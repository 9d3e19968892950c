package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics this program reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	wls := workloads()
	if len(bj.Workloads) != len(wls) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(bj.Workloads), len(wls))
	}
	for i, w := range wls {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %q %q, program %q %q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2eMetrics)
	check("per_layer", bj.PerLayer, layerMetrics)
}
