// Command e2e runs one benchmark workload once, untraced, and prints its
// measurements as one JSON line (ledger.Run). It calls only the root
// gossipstream facade. The perfbench command starts one e2e process per
// measured run, so every run has a fresh heap and its own peak RSS.
//
//	e2e -workload paper-230 -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/metrics"
	"syscall"
	"time"

	"gossipstream"
	"gossipstream/perfbench/ledger"
	"gossipstream/perfbench/workload"
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", workload.DefaultSeed, "workload seed")
	flag.Parse()
	w, err := workload.Lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(2)
	}
	run := measure(w, *seed)
	if err := json.NewEncoder(os.Stdout).Encode(run); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func heapAllocs() (objects, bytes uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// measure runs the workload and scores it. The engine's wall clock is
// read only between conservative windows, so it cannot change the run.
func measure(w workload.Workload, seed int64) ledger.Run {
	cfg := w.Config(seed)
	cfg.Telemetry = &gossipstream.TelemetryOptions{Clock: gossipstream.NewWallClock()}
	run := ledger.Run{Workload: w.Name, Seed: seed}

	obj0, b0 := heapAllocs()
	cpu0 := cpuNS()
	t0 := time.Now()
	res, err := gossipstream.RunExperiment(cfg)
	if err == nil {
		run.Manifest = res.Manifest("perfbench")
	}
	run.WallNS = time.Since(t0).Nanoseconds()
	run.CPUNS = cpuNS() - cpu0
	obj1, b1 := heapAllocs()
	run.Allocs, run.AllocBytes = obj1-obj0, b1-b0
	run.PeakRSSBytes = ledger.PeakRSSBytes()
	if err != nil {
		run.Err = err.Error()
	}
	return run
}
