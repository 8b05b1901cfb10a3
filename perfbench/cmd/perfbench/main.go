// Command perfbench runs the benchmark. It runs one workload for a
// measured span and prints, as its last output line, one JSON result
// (ledger.Result).
//
// Untraced (-trace 0), it starts one e2e worker process after another,
// one at a time, each running the deployment once; it drops the timings
// of any run that fails its output checks and reports the median of each
// end-to-end metric over the rest. Host times are scaled to the reference
// host by a memory-latency probe taken before and after every run
// (ledger.HostScale). Traced (-trace 1), it runs the
// deployment once untraced and once under the traced worker, and reports
// the per-layer metrics with the trace's self-checks.
//
// It is started by run.sh, which builds the workers first:
//
//	bash perfbench/run.sh --workload paper-230 --seed 1 --seconds 60 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"gossipstream/perfbench/ledger"
	"gossipstream/perfbench/workload"
)

// deadline bounds one invocation: every worker is killed and waited for
// before it, so perfbench always exits within 180 s.
const deadline = 170 * time.Second

// minRuns is the fewest untraced runs an invocation makes, so every
// invocation compares two manifests at its seed.
const minRuns = 2

// procs is the GOMAXPROCS of every worker: the two threads the 2-shard
// workload can use, never more than the machine has.
var procs = min(2, runtime.NumCPU())

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", workload.DefaultSeed, fmt.Sprintf("workload seed (%d validates a claim)", workload.ValidationSeed))
	seconds := fs.Int("seconds", 60, "measured span in seconds")
	traced := fs.Int("trace", 0, "1 for the traced run and per-layer metrics")
	bin := fs.String("bin", "", "directory of the built e2e and traced workers")
	root := fs.String("root", ".", "source tree the workers were built from")
	outDir := fs.String("out", "", "directory for the full result records (optional)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := workload.Lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || *bin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: want -seconds >= 1, -trace 0 or 1, and -bin")
		return 2
	}
	runtime.GOMAXPROCS(procs) // so the host record states the workers' setting
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	rec := record{Host: ledger.HostInfo(*root), Workload: w.Name, Seed: *seed, Trace: *traced}
	var res ledger.Result
	if *traced == 1 {
		res = tracedRun(ctx, *bin, w.Name, *seed, &rec)
	} else {
		res = untracedRuns(ctx, *bin, w.Name, *seed, time.Duration(*seconds)*time.Second, &rec)
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	rec.Result = res
	if *outDir != "" {
		if err := save(*outDir, &rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	host, _ := json.Marshal(map[string]any{"host": rec.Host, "workload": w.Name, "seed": *seed, "trace": *traced}) // plain values always encode
	fmt.Println(string(host))
	last, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(last))
	return 0
}

// record is the full account of one invocation, saved beside the result.
type record struct {
	Host      ledger.Host      `json:"host"`
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     int              `json:"trace"`
	Runs      []ledger.Run     `json:"runs,omitempty"`
	LayerRun  *ledger.LayerRun `json:"layer_run,omitempty"`
	RunTimesS []float64        `json:"run_times_s,omitempty"`
	Problems  []string         `json:"problems,omitempty"`
	Result    ledger.Result    `json:"result"`
}

func save(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Workload, rec.Seed, rec.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// worker runs one worker process to completion and decodes the JSON line
// it prints into out.
func worker(ctx context.Context, path string, out any, args ...string) error {
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), out); err != nil {
		return fmt.Errorf("%s output: %w", filepath.Base(path), err)
	}
	return nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// untracedRuns runs the e2e worker until the next run would end past the
// measured span, and at least minRuns times.
func untracedRuns(ctx context.Context, bin, name string, seed int64, span time.Duration, rec *record) ledger.Result {
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10)}
	pr := newProbe()
	before := pr.measure()
	start := time.Now()
	var longest time.Duration
	var good []ledger.Run
	res := ledger.Result{Metrics: map[string]ledger.Metric{}}
	for {
		t0 := time.Now()
		var r ledger.Run
		err := worker(ctx, filepath.Join(bin, "e2e"), &r, args...)
		took := time.Since(t0)
		longest = max(longest, took)
		res.Attempted++
		rec.RunTimesS = append(rec.RunTimesS, took.Seconds())
		if err != nil {
			// The worker itself failed; another attempt would fail alike.
			res.Failed++
			rec.Problems = append(rec.Problems, fmt.Sprintf("run %d: %v", res.Attempted, err))
			break
		}
		after := pr.measure()
		r.ProbeNS = (before + after) / 2
		before = after
		rec.Runs = append(rec.Runs, r)
		err = ledger.CheckRun(r)
		if err == nil && len(good) > 0 {
			var same bool
			same, err = ledger.SameManifest(good[0].Manifest, r.Manifest)
			if err == nil && !same {
				err = errors.New("manifest differs from the first run at the same seed")
			}
		}
		if err != nil {
			res.Failed++
			rec.Problems = append(rec.Problems, fmt.Sprintf("run %d: %v", res.Attempted, err))
		} else {
			good = append(good, r)
		}
		if ctx.Err() != nil {
			break
		}
		if res.Attempted >= minRuns && time.Since(start)+longest > span {
			break
		}
	}
	res.Correct = res.Failed == 0 && len(good) > 0
	per := map[string][]float64{}
	for _, r := range good {
		for k, v := range ledger.Metrics(r) {
			per[k] = append(per[k], v)
		}
	}
	for k, unit := range ledger.Units {
		v := 0.0
		if len(per[k]) > 0 {
			v = ledger.Median(per[k])
		}
		res.Metrics[k] = ledger.Metric{Value: v, Unit: unit}
	}
	return res
}

// tracedRun runs the deployment once untraced and once traced and checks
// the trace against the untraced run. Each of the two runs fails on its
// own checks; the traced run also fails when its event count differs from
// the untraced run's or a self-check does not hold.
func tracedRun(ctx context.Context, bin, name string, seed int64, rec *record) ledger.Result {
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10)}
	res := ledger.Result{Attempted: 2, Metrics: map[string]ledger.Metric{}}
	var u ledger.Run
	err := worker(ctx, filepath.Join(bin, "e2e"), &u, args...)
	if err == nil {
		rec.Runs = append(rec.Runs, u)
		err = ledger.CheckRun(u)
	}
	if err != nil {
		res.Failed++
		rec.Problems = append(rec.Problems, fmt.Sprintf("untraced run: %v", err))
	}

	var t ledger.LayerRun
	var problems []string
	if err := worker(ctx, filepath.Join(bin, "traced"), &t, args...); err != nil {
		problems = append(problems, err.Error())
	} else if t.Err != "" {
		problems = append(problems, t.Err)
	} else {
		rec.LayerRun = &t
		if err := ledger.CheckConservation(t.Manifest); err != nil {
			problems = append(problems, err.Error())
		}
		problems = append(problems, t.Problems...)
	}
	match := t.Events > 0 && t.Events == u.Manifest.Events
	if !match {
		problems = append(problems, fmt.Sprintf("executed %d events, the untraced run %d (difference %d)",
			t.Events, u.Manifest.Events, int64(t.Events)-int64(u.Manifest.Events)))
	} else if same, err := ledger.SameOutcome(t.Manifest, u.Manifest); err != nil || !same {
		problems = append(problems, fmt.Sprintf("scored a different manifest than the untraced run (%v)", err))
	}
	overhead := 0.0
	if u.WallNS > 0 && t.WallNS > 0 {
		overhead = 100 * (float64(t.WallNS)/float64(u.WallNS) - 1)
	}
	for _, l := range layerMetrics {
		v, ok := t.Metrics[l.name]
		switch l.name {
		case "trace.overhead_pct":
			v, ok = overhead, true
		case "trace.event_match":
			v, ok = 0, true
			if match {
				v = 1
			}
		}
		if !ok && t.Err == "" && t.Metrics != nil {
			problems = append(problems, "did not measure "+l.name)
		}
		res.Metrics[l.name] = ledger.Metric{Value: v, Unit: l.unit}
	}
	if len(problems) > 0 {
		res.Failed++
		for _, p := range problems {
			rec.Problems = append(rec.Problems, "traced run: "+p)
		}
	}
	res.Correct = res.Failed == 0
	return res
}
