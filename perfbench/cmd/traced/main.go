// Command traced runs one benchmark workload once under the span tracer
// and the CPU profiler, and prints its per-layer measurements as one JSON
// line (ledger.LayerRun). It rebuilds the deployment from internal
// constructors; run.sh builds it only for traced runs.
//
//	traced -workload churn-3k -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"gossipstream/perfbench/ledger"
	"gossipstream/perfbench/trace"
	"gossipstream/perfbench/workload"
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", workload.DefaultSeed, "workload seed")
	flag.Parse()
	w, err := workload.Lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		os.Exit(2)
	}
	run, err := trace.Run(w.Config(*seed))
	if err != nil {
		run = &ledger.LayerRun{Err: err.Error()}
	}
	run.Workload, run.Seed = w.Name, *seed
	if err := json.NewEncoder(os.Stdout).Encode(run); err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		os.Exit(1)
	}
}
