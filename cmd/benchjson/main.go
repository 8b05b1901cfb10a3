// Command benchjson runs the repository's simulation-scale and FEC-kernel
// benchmarks once each and writes the results as JSON — the
// machine-readable record of the performance trajectory (BENCH_sim.json).
//
// Usage:
//
//	go run ./cmd/benchjson [-bench regex] [-short] [-timeout 120m] [-out BENCH_sim.json]
//
// The tool shells out to `go test -bench` so the numbers are exactly what
// the standard harness reports, then parses the text output. When both
// 1-shard and 8-shard rows of a megasim size are present it also records
// the parallel speedup — the headline number for the parallel engine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark row.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	SecsPerOp  float64            `json:"secs_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_sim.json schema.
type Report struct {
	GeneratedUnix int64              `json:"generated_unix"`
	GoVersion     string             `json:"go_version"`
	GOOS          string             `json:"goos"`
	GOARCH        string             `json:"goarch"`
	CPUs          int                `json:"cpus"`
	CPUModel      string             `json:"cpu_model,omitempty"`
	BenchRegex    string             `json:"bench_regex"`
	Short         bool               `json:"short"`
	Results       []Result           `json:"results"`
	Speedups      map[string]float64 `json:"megasim_shard_speedups,omitempty"`
	// CyclonOverheads records, per megasim scenario, the wall-time ratio
	// of the Cyclon partial-view run over its full-view (SparseView)
	// counterpart — the cost of realistic membership at scale.
	CyclonOverheads map[string]float64 `json:"megasim_cyclon_overheads,omitempty"`
	// PoissonChurn records, per sustained-churn scenario, the wall-time
	// and event-count ratios over its churn-free counterpart — the cost of
	// continuous join/leave with runtime bootstrap.
	PoissonChurn map[string]map[string]float64 `json:"megasim_poisson_churn,omitempty"`
	// StreamingMemory records, per "...Streaming" memory scenario, the
	// end-of-run live heap against its "...Retained" twin — the memory
	// saved by barrier-folded metrics over retained receivers.
	StreamingMemory map[string]map[string]float64 `json:"megasim_streaming_memory,omitempty"`
	// QueueAblation records, per calendar-queue scenario, the heap twin's
	// wall time over the calendar's (the scheduler's speedup) — for the
	// end-to-end single-shard runs and, with an events/s throughput ratio,
	// the pure scheduler microbench.
	QueueAblation map[string]map[string]float64 `json:"megasim_queue_ablation,omitempty"`
	// ArenaRecycling records, per "...Churn" arena scenario, the end-of-run
	// live heap against its "...Baseline" (churn-free) twin alongside the
	// incarnation and arena-slot counts: the proof that slot recycling
	// holds engine memory at O(live nodes) while total joins grow.
	ArenaRecycling map[string]map[string]float64 `json:"megasim_arena_recycling,omitempty"`
	// Scenarios records each adversarial membership scenario row
	// ("MegasimScenario...") — wall seconds plus every reported metric —
	// and, when both leave-style twins are present, the graceful-over-
	// crash wall and completeness ratios: the share of the churn cost
	// that is detection lag rather than unavoidable loss.
	Scenarios map[string]map[string]float64 `json:"megasim_scenarios,omitempty"`
}

// benchLine matches `BenchmarkName-8   1   123456 ns/op   7.5 extra/unit ...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(\d+(?:\.\d+)?) ns/op(.*)$`)

// metricPair matches the trailing `<value> <unit>` pairs of a bench line.
var metricPair = regexp.MustCompile(`(\d+(?:\.\d+)?) (\S+)`)

func main() {
	var (
		bench      = flag.String("bench", "BenchmarkMegasim", "simulation benchmark regex, run at -benchtime 1x (empty = skip)")
		kernel     = flag.String("kernel", "BenchmarkFEC|BenchmarkMulSlice", "codec-kernel benchmark regex (empty = skip)")
		kernelTime = flag.String("kernelbenchtime", "100x", "benchtime for the kernel pass; microsecond kernels need iterations beyond the simulators' 1x to report steady state")
		queue      = flag.String("queue", "BenchmarkMegasimQueueOps", "pure scheduler microbenchmark regex, run in -queuepkg (empty = skip)")
		queueTime  = flag.String("queuebenchtime", "2s", "benchtime for the scheduler microbench pass; per-op costs are nanoseconds, so it needs wall-clock averaging")
		queuePkg   = flag.String("queuepkg", "./internal/megasim", "package containing the scheduler microbenchmarks")
		short      = flag.Bool("short", false, "pass -short (skips the 10k/100k scale runs)")
		timeout    = flag.Duration("timeout", 120*time.Minute, "go test timeout")
		out        = flag.String("out", "BENCH_sim.json", "output path")
		pkg        = flag.String("pkg", ".", "package containing the benchmarks")
	)
	flag.Parse()
	if err := run(*bench, *kernel, *kernelTime, *queue, *queueTime, *queuePkg, *pkg, *out, *timeout, *short); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run executes up to three `go test -bench` passes — the simulation-scale
// scenarios at exactly one iteration each, and the FEC kernels and
// scheduler microbenchmarks at benchtimes long enough to average out
// timer noise — and merges their tables into one report.
func run(simBench, kernelBench, kernelTime, queueBench, queueTime, queuePkg, pkg, out string, timeout time.Duration, short bool) error {
	var raw []byte
	pass := func(bench, benchtime, pkg string) error {
		args := []string{"test", "-run", "^$", "-bench", bench, "-benchtime", benchtime, "-count", "1",
			"-timeout", timeout.String()}
		if short {
			args = append(args, "-short")
		}
		args = append(args, pkg)
		fmt.Fprintln(os.Stderr, "benchjson: go", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		got, err := cmd.Output()
		// Stream the raw table for the operator before any error handling
		// so partial output is never lost.
		os.Stderr.Write(got)
		raw = append(raw, got...)
		if err != nil {
			return fmt.Errorf("go test: %w", err)
		}
		return nil
	}
	var regexes []string
	if simBench != "" {
		regexes = append(regexes, simBench)
		if err := pass(simBench, "1x", pkg); err != nil {
			return err
		}
	}
	if kernelBench != "" {
		regexes = append(regexes, kernelBench)
		if err := pass(kernelBench, kernelTime, pkg); err != nil {
			return err
		}
	}
	if queueBench != "" {
		regexes = append(regexes, queueBench)
		if err := pass(queueBench, queueTime, queuePkg); err != nil {
			return err
		}
	}
	bench := strings.Join(regexes, "|")
	if bench == "" {
		return fmt.Errorf("-bench, -kernel, and -queue all empty: nothing to run")
	}

	rep := Report{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		BenchRegex:    bench,
		Short:         short,
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "cpu:") {
			rep.CPUModel = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		res := Result{
			Name:       strings.TrimPrefix(m[1], "Benchmark"),
			Iterations: iters,
			NsPerOp:    ns,
			SecsPerOp:  ns / 1e9,
		}
		for _, pair := range metricPair.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				continue
			}
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[pair[2]] = v
		}
		rep.Results = append(rep.Results, res)
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("no benchmark results matched %q", bench)
	}
	rep.Speedups = speedups(rep.Results)
	rep.CyclonOverheads = cyclonOverheads(rep.Results)
	rep.PoissonChurn = poissonChurn(rep.Results)
	rep.StreamingMemory = streamingMemory(rep.Results)
	rep.QueueAblation = queueAblation(rep.Results)
	rep.ArenaRecycling = arenaRecycling(rep.Results)
	rep.Scenarios = scenarios(rep.Results)

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(rep.Results), out)
	return nil
}

// speedups derives shards-8-over-shards-1 wall-time ratios per megasim
// size, e.g. "Megasim100k": 4.2.
func speedups(results []Result) map[string]float64 {
	byName := map[string]float64{}
	for _, r := range results {
		byName[r.Name] = r.NsPerOp
	}
	out := map[string]float64{}
	for name, one := range byName {
		base, ok := strings.CutSuffix(name, "Shards1")
		if !ok {
			continue
		}
		if eight, ok := byName[base+"Shards8"]; ok && eight > 0 {
			out[base] = one / eight
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// poissonChurn pairs each sustained-churn result ("...PoissonChurn...")
// with its churn-free counterpart (the same name minus the marker) and
// records the wall-time and — when both report events/op — event-count
// ratios: what continuous join/leave with runtime bootstrap costs on top
// of the same scenario without churn.
func poissonChurn(results []Result) map[string]map[string]float64 {
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	out := map[string]map[string]float64{}
	for name, churned := range byName {
		if !strings.Contains(name, "PoissonChurn") {
			continue
		}
		base, ok := byName[strings.Replace(name, "PoissonChurn", "", 1)]
		if !ok || base.NsPerOp <= 0 {
			continue
		}
		ratios := map[string]float64{"wall_ratio": churned.NsPerOp / base.NsPerOp}
		if be, ce := base.Metrics["events/op"], churned.Metrics["events/op"]; be > 0 && ce > 0 {
			ratios["events_ratio"] = ce / be
		}
		out[name] = ratios
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// streamingMemory pairs each "...Streaming" memory scenario with its
// "...Retained" twin and records both live-heap figures, their ratio, and
// the wall-time ratio: what barrier-folded metrics save over retained
// receivers, and what the folding costs.
func streamingMemory(results []Result) map[string]map[string]float64 {
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	out := map[string]map[string]float64{}
	for name, s := range byName {
		base, ok := strings.CutSuffix(name, "Streaming")
		if !ok {
			continue
		}
		r, ok := byName[base+"Retained"]
		if !ok {
			continue
		}
		pair := map[string]float64{}
		if rl, sl := r.Metrics["live-MB"], s.Metrics["live-MB"]; rl > 0 && sl > 0 {
			pair["retained_live_mb"] = rl
			pair["streaming_live_mb"] = sl
			pair["live_ratio"] = sl / rl
		}
		if r.NsPerOp > 0 {
			pair["wall_ratio"] = s.NsPerOp / r.NsPerOp
		}
		if len(pair) > 0 {
			out[name] = pair
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// queueAblation pairs each calendar-queue result — the end-to-end engine
// runs ("MegasimQueueCalendar2k") and the pure scheduler microbench
// ("MegasimQueueOpsCalendar") — with its heap twin (the same name with
// "Calendar" replaced by "Heap") and records the heap-over-calendar wall
// ratio: how much the O(1) scheduler buys at that scale. When both rows
// report events/s, the throughput ratio is recorded too.
func queueAblation(results []Result) map[string]map[string]float64 {
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	out := map[string]map[string]float64{}
	for name, cal := range byName {
		if !strings.Contains(name, "Queue") || !strings.Contains(name, "Calendar") {
			continue
		}
		heap, ok := byName[strings.Replace(name, "Calendar", "Heap", 1)]
		if !ok || heap.NsPerOp <= 0 || cal.NsPerOp <= 0 {
			continue
		}
		pair := map[string]float64{"speedup": heap.NsPerOp / cal.NsPerOp}
		if he, ce := heap.Metrics["events/s"], cal.Metrics["events/s"]; he > 0 && ce > 0 {
			pair["heap_events_per_sec"] = he
			pair["calendar_events_per_sec"] = ce
			pair["events_per_sec_ratio"] = ce / he
		}
		out[name] = pair
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// arenaRecycling pairs each arena-recycling churn scenario ("...Churn")
// with its churn-free twin ("...Baseline") and records both live-heap
// figures, their ratio, and the join/arena-slot counts: under slot
// recycling the churned run's arena holds the live population (slots ≈
// baseline's) while joins run into the millions, so live_ratio stays
// near 1 instead of growing with every join.
func arenaRecycling(results []Result) map[string]map[string]float64 {
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	out := map[string]map[string]float64{}
	for name, c := range byName {
		if !strings.Contains(name, "ArenaRecycling") {
			continue
		}
		base, ok := strings.CutSuffix(name, "Churn")
		if !ok {
			continue
		}
		bl, ok := byName[base+"Baseline"]
		if !ok {
			continue
		}
		pair := map[string]float64{}
		if bm, cm := bl.Metrics["live-MB"], c.Metrics["live-MB"]; bm > 0 && cm > 0 {
			pair["baseline_live_mb"] = bm
			pair["churn_live_mb"] = cm
			pair["live_ratio"] = cm / bm
		}
		if j := c.Metrics["joins"]; j > 0 {
			pair["churn_joins"] = j
		}
		if s := c.Metrics["arena-slots"]; s > 0 {
			pair["churn_arena_slots"] = s
		}
		if bl.NsPerOp > 0 {
			pair["wall_ratio"] = c.NsPerOp / bl.NsPerOp
		}
		if len(pair) > 0 {
			out[name] = pair
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// scenarios collects the adversarial membership scenario rows
// ("MegasimScenario...") into one section: wall seconds plus every metric
// the benchmark reported. Each graceful-leave row is additionally paired
// with its crash-leave twin (the same name with "GracefulLeave" replaced
// by "CrashLeave") to record the wall and complete% ratios — the twins
// share a departure schedule, so the completeness gap is exactly the cost
// of failure detection lag.
func scenarios(results []Result) map[string]map[string]float64 {
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	out := map[string]map[string]float64{}
	for name, r := range byName {
		if !strings.Contains(name, "MegasimScenario") {
			continue
		}
		row := map[string]float64{"secs": r.NsPerOp / 1e9}
		for k, v := range r.Metrics {
			row[k] = v
		}
		out[name] = row
	}
	for name, g := range byName {
		if !strings.Contains(name, "MegasimScenario") || !strings.Contains(name, "GracefulLeave") {
			continue
		}
		crash, ok := byName[strings.Replace(name, "GracefulLeave", "CrashLeave", 1)]
		if !ok {
			continue
		}
		if crash.NsPerOp > 0 {
			out[name]["wall_over_crash"] = g.NsPerOp / crash.NsPerOp
		}
		if cc, gc := crash.Metrics["complete%"], g.Metrics["complete%"]; cc > 0 && gc > 0 {
			out[name]["complete_over_crash"] = gc / cc
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// cyclonOverheads derives cyclon-over-full wall-time ratios per
// scenario, pairing each "...Cyclon..." result with its full-view
// counterpart: the same name minus the marker
// ("Megasim2kCyclonShards1" / "Megasim2kShards1").
func cyclonOverheads(results []Result) map[string]float64 {
	byName := map[string]float64{}
	for _, r := range results {
		byName[r.Name] = r.NsPerOp
	}
	out := map[string]float64{}
	for name, cyclon := range byName {
		if !strings.Contains(name, "Cyclon") {
			continue
		}
		if full, ok := byName[strings.Replace(name, "Cyclon", "", 1)]; ok && full > 0 {
			out[name] = cyclon / full
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
