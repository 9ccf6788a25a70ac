package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// Every metric the benchmark can print is declared, with the same unit,
// in BENCHMARK.json, and every declared metric is printed.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode     string
		declared []struct{ Name, Unit string }
		defs     []metricDef
		traced   bool
	}{
		{"end_to_end", spec.EndToEnd, endToEnd, false},
		{"per_layer", spec.PerLayer, perLayer, true},
	} {
		units := map[string]string{}
		for _, d := range c.declared {
			units[d.Name] = d.Unit
		}
		r := &run{workload: "test", metrics: map[string]float64{}, attempted: 1}
		for _, d := range c.defs {
			r.set(d.Name, 1)
		}
		out, err := result(r, c.defs, c.traced)
		if err != nil {
			t.Fatal(err)
		}
		var printed struct {
			Metrics map[string]struct{ Unit string } `json:"metrics"`
		}
		if err := json.Unmarshal(out, &printed); err != nil {
			t.Fatal(err)
		}
		for name, v := range printed.Metrics {
			if u, ok := units[name]; !ok {
				t.Errorf("%s: printed metric %q is not in BENCHMARK.json", c.mode, name)
			} else if u != v.Unit {
				t.Errorf("%s: %q printed in %s, declared in %s", c.mode, name, v.Unit, u)
			}
		}
		if len(printed.Metrics) != len(units) {
			t.Errorf("%s: printed %d metrics, BENCHMARK.json declares %d", c.mode, len(printed.Metrics), len(units))
		}
	}
}
