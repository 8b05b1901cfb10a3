// Megascale: run the paper's baseline scenario far beyond its 230-node
// testbed on parallel engine shards (internal/megasim), then print
// the same quality metrics the paper reports plus engine statistics.
//
//	go run ./examples/megascale                      # 10k nodes, one shard per core
//	go run ./examples/megascale -nodes 100000        # the full 100k scenario
//	go run ./examples/megascale -nodes 20000 -churn 0.2
//	go run ./examples/megascale -membership cyclon   # realistic partial views
//
// Sustained Poisson churn — ≈1% of the population joining and leaving per
// second, joiners bootstrapping into live Cyclon views at runtime:
//
//	go run ./examples/megascale -membership cyclon -churn poisson:0.01,0.01
//
// At large scale, -streaming folds the quality metrics at engine barriers
// instead of retaining every node's receiver — same numbers, flat memory:
//
//	go run ./examples/megascale -nodes 1000000 -streaming -progress
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"gossipstream"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 10_000, "system size including the source")
		shards    = flag.Int("shards", runtime.GOMAXPROCS(0), "parallel shards")
		secs      = flag.Int("seconds", 30, "simulated seconds (stream + drain)")
		churn     = flag.String("churn", "0", "churn: a fraction failing mid-stream; poisson:<join>,<leave> or graceful:<join>,<leave> fractions of the population per second; or flash:<mult>,<secs>[,<start-secs>] (joins need -membership cyclon)")
		members   = flag.String("membership", "full", "membership substrate: full (global view) or cyclon (partial views)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		queue     = flag.String("queue", "calendar", "per-shard scheduler: calendar (fast) or heap")
		streaming = flag.Bool("streaming", false, "fold quality metrics at engine barriers instead of retaining per-node receivers (same numbers, flat memory)")
		progress  = flag.Bool("progress", false, "print a live progress line to stderr")
		teleOut   = flag.String("telemetry", "", "write a JSON run manifest to this path (- = stdout)")
	)
	flag.Parse()
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "megascale: -shards %d: want >= 1\n", *shards)
		os.Exit(1)
	}

	cfg := gossipstream.ScaledExperiment(*nodes, *shards, time.Duration(*secs)*time.Second)
	cfg.Seed = *seed
	m, err := gossipstream.ParseMembership(*members)
	if err != nil {
		fmt.Fprintf(os.Stderr, "megascale: -%v\n", err)
		os.Exit(1)
	}
	cfg.Membership = m
	q, err := gossipstream.ParseQueue(*queue)
	if err != nil {
		fmt.Fprintf(os.Stderr, "megascale: -%v\n", err)
		os.Exit(1)
	}
	cfg.Queue = q
	if err := gossipstream.ApplyChurnFlag(&cfg, *churn); err != nil {
		fmt.Fprintf(os.Stderr, "megascale: -%v\n", err)
		os.Exit(1)
	}
	cfg.StreamingMetrics = *streaming
	progressDone := func() {}
	if *progress || *teleOut != "" {
		topts := &gossipstream.TelemetryOptions{
			SnapshotEvery: time.Second,
			Clock:         gossipstream.NewWallClock(),
		}
		if *progress {
			line, done := gossipstream.NewProgressLine(os.Stderr)
			topts.OnSnapshot = line
			progressDone = done
		}
		cfg.Telemetry = topts
	}

	fmt.Printf("simulating %d nodes × %ds of 600 kbps stream on %d shards (%s membership)...\n",
		*nodes, *secs, cfg.Shards, *members)
	start := time.Now()
	res, err := gossipstream.RunExperiment(cfg)
	progressDone()
	if err != nil {
		fmt.Fprintln(os.Stderr, "megascale:", err)
		os.Exit(1)
	}
	wall := time.Since(start)

	// Every quality line routes through the Scored* dispatch, so the
	// report is identical with and without -streaming.
	fmt.Printf("done in %v: %d events (%.0f events/s wall)\n",
		wall.Round(time.Millisecond), res.Events, float64(res.Events)/wall.Seconds())
	fmt.Printf("survivors:                                 %d / %d\n", res.SurvivorCount(), res.NodeCount())
	fmt.Printf("nodes viewing with <1%% jitter at 10 s lag: %5.1f%%\n",
		res.SurvivorViewablePct(10*time.Second, gossipstream.JitterThreshold))
	fmt.Printf("nodes viewing with <1%% jitter offline:     %5.1f%%\n",
		res.SurvivorViewablePct(gossipstream.OfflineLag, gossipstream.JitterThreshold))
	fmt.Printf("mean complete windows:                     %5.1f%%\n",
		res.SurvivorMeanCompletePct(gossipstream.OfflineLag))
	if cfg.ChurnProcess != nil && !cfg.ChurnProcess.IsZero() {
		fmt.Printf("complete windows among present nodes:      %5.1f%% (%d nodes, joiners after bootstrap grace)\n",
			res.PresentMeanCompletePct(gossipstream.OfflineLag), res.PresentCount())
	}
	if loads := res.ShardLoads; len(loads) > 0 {
		lo, hi := loads[0].Events, loads[0].Events
		for _, l := range loads[1:] {
			if l.Events < lo {
				lo = l.Events
			}
			if l.Events > hi {
				hi = l.Events
			}
		}
		fmt.Printf("shard load: %d..%d events/shard across %d shards\n", lo, hi, len(loads))
	}

	// Network-wide conservation: every message is delivered, lands in a
	// drop counter (congestion, UDP loss, crashed endpoint), or was still
	// in flight when the simulation deadline hit — nothing vanishes
	// silently.
	var sent, recv, congestion, lost, dead uint64
	account := func(s gossipstream.NetStats) {
		for k := range s.SentMsgs {
			sent += s.SentMsgs[k]
			recv += s.RecvMsgs[k]
		}
		congestion += s.CongestionDrops
		lost += s.RandomDrops
		dead += s.DeadDrops
	}
	// The engine-wide aggregate survives -streaming's per-node state
	// release and slot recycling under churn.
	account(res.TotalTraffic)
	inFlight := sent - recv - lost - dead
	fmt.Printf("messages: %d sent, %d delivered, %d congestion-dropped,\n", sent, recv, congestion)
	fmt.Printf("          %d lost (UDP), %d to/from crashed nodes, %d in flight at deadline\n",
		lost, dead, inFlight)

	if *teleOut != "" {
		if err := writeManifest(res.Manifest("megascale"), *teleOut); err != nil {
			fmt.Fprintln(os.Stderr, "megascale:", err)
			os.Exit(1)
		}
	}
}

// writeManifest marshals the run manifest to path, "-" meaning stdout.
func writeManifest(m gossipstream.RunManifest, path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
