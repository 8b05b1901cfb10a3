package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gossipstream/perfbench/ledger"
	"gossipstream/perfbench/workload"
)

// TestBenchmarkDeclaration keeps BENCHMARK.json in step with what the
// benchmark prints: the same workloads, and the same metrics with the same
// units.
func TestBenchmarkDeclaration(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workload.All) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workload.All))
	}
	for i, w := range decl.Workloads {
		if _, err := workload.Lookup(w.Name); err != nil || i < len(workload.All) && workload.All[i].Name != w.Name {
			t.Errorf("workload %d: declared %q, benchmark order has %q", i, w.Name, workload.All[min(i, len(workload.All)-1)].Name)
		}
	}
	if len(decl.EndToEnd) != len(ledger.Units) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the benchmark reports %d", len(decl.EndToEnd), len(ledger.Units))
	}
	for _, m := range decl.EndToEnd {
		if u, ok := ledger.Units[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end %s [%s]: benchmark reports unit %q (present %v)", m.Name, m.Unit, u, ok)
		}
	}
	if len(decl.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark reports %d", len(decl.PerLayer), len(layerMetrics))
	}
	for i, m := range decl.PerLayer {
		if l := layerMetrics[i]; l.name != m.Name || l.unit != m.Unit {
			t.Errorf("per-layer %d: declared %s [%s], benchmark reports %s [%s]", i, m.Name, m.Unit, l.name, l.unit)
		}
	}
}

func TestLastLine(t *testing.T) {
	for in, want := range map[string]string{
		"{}\n":               "{}",
		"noise\n{\"a\":1}\n": "{\"a\":1}",
		"x":                  "x",
	} {
		if got := string(lastLine([]byte(in))); got != want {
			t.Errorf("lastLine(%q) = %q, want %q", in, got, want)
		}
	}
}
