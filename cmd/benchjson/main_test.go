package main

import (
	"math"
	"testing"
)

func TestSpeedupsPairing(t *testing.T) {
	results := []Result{
		{Name: "Megasim2kShards1", NsPerOp: 10e9},
		{Name: "Megasim2kShards8", NsPerOp: 5e9},
		{Name: "Megasim10kShards1", NsPerOp: 100e9}, // no 8-shard partner
	}
	got := speedups(results)
	if len(got) != 1 || math.Abs(got["Megasim2k"]-2.0) > 1e-9 {
		t.Fatalf("speedups = %v, want {Megasim2k: 2}", got)
	}
}

func TestCyclonOverheadsPairing(t *testing.T) {
	results := []Result{
		// Marker-removal pairing (scale scenarios).
		{Name: "Megasim2kShards1", NsPerOp: 10e9},
		{Name: "Megasim2kCyclonShards1", NsPerOp: 11e9},
		// Unpaired Cyclon row: no counterpart, no entry.
		{Name: "Megasim10kCyclonShards8", NsPerOp: 70e9},
	}
	got := cyclonOverheads(results)
	if len(got) != 1 {
		t.Fatalf("overheads = %v, want exactly 1 pair", got)
	}
	if math.Abs(got["Megasim2kCyclonShards1"]-1.1) > 1e-9 {
		t.Fatalf("scale pair ratio = %v, want 1.1", got["Megasim2kCyclonShards1"])
	}
}

func TestCyclonOverheadsEmpty(t *testing.T) {
	if got := cyclonOverheads([]Result{{Name: "Megasim2kShards1", NsPerOp: 1}}); got != nil {
		t.Fatalf("overheads = %v, want nil with no Cyclon rows", got)
	}
}

func TestStreamingMemoryPairing(t *testing.T) {
	results := []Result{
		{Name: "MegasimMemory2kRetained", NsPerOp: 10e9, Metrics: map[string]float64{"live-MB": 200}},
		{Name: "MegasimMemory2kStreaming", NsPerOp: 11e9, Metrics: map[string]float64{"live-MB": 20}},
		// Streaming row without a Retained twin: no entry.
		{Name: "MegasimMemory100kStreaming", NsPerOp: 70e9, Metrics: map[string]float64{"live-MB": 50}},
	}
	got := streamingMemory(results)
	if len(got) != 1 {
		t.Fatalf("streamingMemory = %v, want exactly 1 pair", got)
	}
	pair := got["MegasimMemory2kStreaming"]
	if math.Abs(pair["live_ratio"]-0.1) > 1e-9 ||
		math.Abs(pair["retained_live_mb"]-200) > 1e-9 ||
		math.Abs(pair["streaming_live_mb"]-20) > 1e-9 {
		t.Fatalf("pair = %v, want live 200→20, ratio 0.1", pair)
	}
	if math.Abs(pair["wall_ratio"]-1.1) > 1e-9 {
		t.Fatalf("wall ratio = %v, want 1.1", pair["wall_ratio"])
	}
	if got := streamingMemory([]Result{{Name: "Megasim2kShards1", NsPerOp: 1}}); got != nil {
		t.Fatalf("streamingMemory = %v, want nil with no memory rows", got)
	}
}

func TestQueueAblationPairing(t *testing.T) {
	results := []Result{
		// End-to-end pair: wall speedup only.
		{Name: "MegasimQueueHeap2k", NsPerOp: 12e9, Metrics: map[string]float64{"events/op": 4e6}},
		{Name: "MegasimQueueCalendar2k", NsPerOp: 10e9, Metrics: map[string]float64{"events/op": 4e6}},
		// Microbench pair: speedup plus throughput ratio.
		{Name: "MegasimQueueOpsHeap", NsPerOp: 300, Metrics: map[string]float64{"events/s": 6e6}},
		{Name: "MegasimQueueOpsCalendar", NsPerOp: 100, Metrics: map[string]float64{"events/s": 18e6}},
		// Unpaired calendar row: no entry.
		{Name: "MegasimQueueCalendar10k", NsPerOp: 70e9},
		// Non-queue Calendar-free rows never match.
		{Name: "Megasim2kShards1", NsPerOp: 10e9},
	}
	got := queueAblation(results)
	if len(got) != 2 {
		t.Fatalf("queueAblation = %v, want exactly 2 pairs", got)
	}
	e2e := got["MegasimQueueCalendar2k"]
	if math.Abs(e2e["speedup"]-1.2) > 1e-9 {
		t.Fatalf("e2e speedup = %v, want 1.2", e2e["speedup"])
	}
	if _, ok := e2e["events_per_sec_ratio"]; ok {
		t.Fatal("throughput ratio derived without events/s metrics")
	}
	micro := got["MegasimQueueOpsCalendar"]
	if math.Abs(micro["speedup"]-3.0) > 1e-9 || math.Abs(micro["events_per_sec_ratio"]-3.0) > 1e-9 ||
		math.Abs(micro["heap_events_per_sec"]-6e6) > 1e-3 || math.Abs(micro["calendar_events_per_sec"]-18e6) > 1e-3 {
		t.Fatalf("micro pair = %v, want 3x on both axes", micro)
	}
	if got := queueAblation([]Result{{Name: "Megasim2kShards1", NsPerOp: 1}}); got != nil {
		t.Fatalf("queueAblation = %v, want nil with no queue rows", got)
	}
}

func TestScenariosSection(t *testing.T) {
	results := []Result{
		{Name: "MegasimScenarioCrashLeave10k", NsPerOp: 10e9,
			Metrics: map[string]float64{"complete%": 0.90, "joined/op": 12900}},
		{Name: "MegasimScenarioGracefulLeave10k", NsPerOp: 11e9,
			Metrics: map[string]float64{"complete%": 0.945, "joined/op": 12900}},
		// Scenario without a twin: collected, no ratios.
		{Name: "MegasimScenarioFlashCrowd10k", NsPerOp: 5e9,
			Metrics: map[string]float64{"joined/op": 9000}},
		// Non-scenario rows never match.
		{Name: "Megasim2kShards1", NsPerOp: 10e9},
	}
	got := scenarios(results)
	if len(got) != 3 {
		t.Fatalf("scenarios = %v, want exactly 3 rows", got)
	}
	graceful := got["MegasimScenarioGracefulLeave10k"]
	if math.Abs(graceful["secs"]-11) > 1e-9 || math.Abs(graceful["complete%"]-0.945) > 1e-9 {
		t.Fatalf("graceful row = %v, want secs 11 and its own metrics", graceful)
	}
	if math.Abs(graceful["wall_over_crash"]-1.1) > 1e-9 ||
		math.Abs(graceful["complete_over_crash"]-1.05) > 1e-9 {
		t.Fatalf("graceful ratios = %v, want wall 1.1, complete 1.05", graceful)
	}
	flash := got["MegasimScenarioFlashCrowd10k"]
	if _, ok := flash["wall_over_crash"]; ok {
		t.Fatal("twin ratio derived for a scenario without a crash twin")
	}
	if math.Abs(flash["joined/op"]-9000) > 1e-9 {
		t.Fatalf("flash row = %v, want joined/op carried through", flash)
	}
	if got := scenarios([]Result{{Name: "Megasim2kShards1", NsPerOp: 1}}); got != nil {
		t.Fatalf("scenarios = %v, want nil with no scenario rows", got)
	}
}

func TestPoissonChurnPairing(t *testing.T) {
	results := []Result{
		{Name: "Megasim2kCyclonShards1", NsPerOp: 10e9, Metrics: map[string]float64{"events/op": 4e6}},
		{Name: "Megasim2kCyclonPoissonChurnShards1", NsPerOp: 12e9, Metrics: map[string]float64{"events/op": 5e6}},
		// Churn row without events metric: wall ratio only.
		{Name: "Megasim10kCyclonShards8", NsPerOp: 50e9},
		{Name: "Megasim10kCyclonPoissonChurnShards8", NsPerOp: 55e9},
		// Unpaired churn row: no entry.
		{Name: "Megasim100kCyclonPoissonChurnShards8", NsPerOp: 70e9},
	}
	got := poissonChurn(results)
	if len(got) != 2 {
		t.Fatalf("poissonChurn = %v, want exactly 2 pairs", got)
	}
	small := got["Megasim2kCyclonPoissonChurnShards1"]
	if math.Abs(small["wall_ratio"]-1.2) > 1e-9 || math.Abs(small["events_ratio"]-1.25) > 1e-9 {
		t.Fatalf("2k ratios = %v, want wall 1.2, events 1.25", small)
	}
	big := got["Megasim10kCyclonPoissonChurnShards8"]
	if math.Abs(big["wall_ratio"]-1.1) > 1e-9 {
		t.Fatalf("10k wall ratio = %v, want 1.1", big["wall_ratio"])
	}
	if _, ok := big["events_ratio"]; ok {
		t.Fatal("events ratio derived without events metrics")
	}
	if got := poissonChurn([]Result{{Name: "Megasim2kShards1", NsPerOp: 1}}); got != nil {
		t.Fatalf("poissonChurn = %v, want nil with no churn rows", got)
	}
}
