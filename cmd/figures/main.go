// Command figures regenerates every table and figure of the paper's
// evaluation section and writes them to text files (plus stdout).
//
//	figures                         # full paper scale (230 nodes, ≈212 s streams)
//	figures -scale 0.2              # quick pass at reduced scale
//	figures -only 1,2               # selected figures
//	figures -only 1 -nodes 10000 -shards 8   # fanout sweep at 10k nodes on 8 parallel shards
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gossipstream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		scale   = fs.Float64("scale", 1.0, "scale factor for nodes and stream length (0,1]")
		seed    = fs.Int64("seed", 1, "simulation seed")
		nodes   = fs.Int("nodes", 0, "override system size (0 = paper scale; the sweeps' scale axis)")
		shards  = fs.Int("shards", 1, "parallel engine shards (results are deterministic per seed and shard count)")
		queue   = fs.String("queue", "heap", "engine scheduler: heap or calendar (same results, different wall time)")
		members = fs.String("membership", "full", "membership substrate for every sweep: full or cyclon")
		churnAt = fs.String("churn", "0", "base churn for every sweep: a fraction failing mid-stream; poisson:<join>,<leave> or graceful:<join>,<leave> fractions of the population per second; or flash:<mult>,<secs>[,<start-secs>] (joins need -membership cyclon)")
		outDir  = fs.String("out", "figures", "directory for figure text files")
		only    = fs.String("only", "", "comma-separated figure selection, e.g. 1,2,7 (default all)")

		streaming = fs.Bool("streaming", false, "fold quality metrics at engine barriers instead of retaining per-node state; figure columns are bit-identical. Figure 4 and the churn claim need retained state and ignore it")
		teleOut   = fs.String("telemetry", "", "write a JSON campaign manifest (config plus every generated table) to this path (- = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *shards < 1 {
		return fmt.Errorf("-shards %d: want >= 1", *shards)
	}
	if *nodes < 0 {
		return fmt.Errorf("-nodes %d: want >= 0", *nodes)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	base := gossipstream.DefaultExperiment()
	base.Seed = *seed
	// -nodes and -shards re-run the sweeps beyond the paper's 230-node
	// testbed on parallel shards (the Figure 1/3 scale axis);
	// -membership and -churn put every sweep over partial views and/or
	// under churn — "-membership cyclon -churn poisson:0.01,0.01" runs the
	// Figure-style sweeps under sustained join/leave with runtime
	// bootstrap.
	if *nodes > 0 {
		base.Nodes = *nodes
	}
	base.Shards = *shards
	q, err := gossipstream.ParseQueue(*queue)
	if err != nil {
		return fmt.Errorf("-%w", err)
	}
	base.Queue = q
	m, err := gossipstream.ParseMembership(*members)
	if err != nil {
		return fmt.Errorf("-%w", err)
	}
	base.Membership = m
	opts := gossipstream.FigureOptions{Base: &base, Scale: *scale}
	// Resolve -churn against the *scaled* configuration the sweeps will
	// actually run: Poisson rates are fractions of the real population and
	// the burst instant must land mid-way through the scaled stream, not
	// the unscaled one.
	scaled := opts.BaseConfig()
	if err := gossipstream.ApplyChurnFlag(&scaled, *churnAt); err != nil {
		return fmt.Errorf("-%w", err)
	}
	base.Churn = scaled.Churn
	base.ChurnProcess = scaled.ChurnProcess
	base.StreamingMetrics = *streaming

	selected := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(s)] = true
		}
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	// emit writes a figure's table, plus an ASCII chart of its numeric
	// columns against the first column when the axis parses as numbers.
	// Emitted tables also accumulate into the -telemetry campaign manifest.
	var exported []tableExport
	emit := func(name string, tb *gossipstream.Table) error {
		text := tb.String()
		if chart := chartOf(tb); chart != "" {
			text += "\n" + chart
		}
		fmt.Fprintln(out, text)
		exported = append(exported, tableExport{
			Name:    strings.TrimSuffix(name, ".txt"),
			Title:   tb.Title,
			Columns: tb.Columns,
			Rows:    tb.Rows(),
		})
		return os.WriteFile(filepath.Join(*outDir, name), []byte(text), 0o644)
	}

	start := time.Now()

	var fig1Results []*gossipstream.ExperimentResult
	if want("1") || want("2") {
		fmt.Fprintln(out, "running figure 1 (fanout sweep, 700 kbps)...")
		tb, results, err := gossipstream.Figure1(opts, nil)
		if err != nil {
			return err
		}
		fig1Results = results
		if want("1") {
			if err := emit("figure1.txt", tb); err != nil {
				return err
			}
		}
	}
	if want("2") {
		fmt.Fprintln(out, "running figure 2 (lag CDF)...")
		tb, err := gossipstream.Figure2(opts, nil, fig1Results)
		if err != nil {
			return err
		}
		if err := emit("figure2.txt", tb); err != nil {
			return err
		}
	}
	if want("3") {
		fmt.Fprintln(out, "running figure 3 (1000/2000 kbps caps)...")
		tb, err := gossipstream.Figure3(opts, nil, nil)
		if err != nil {
			return err
		}
		if err := emit("figure3.txt", tb); err != nil {
			return err
		}
	}
	if want("4") {
		fmt.Fprintln(out, "running figure 4 (bandwidth distribution)...")
		tb, err := gossipstream.Figure4(opts, nil)
		if err != nil {
			return err
		}
		if err := emit("figure4.txt", tb); err != nil {
			return err
		}
	}
	if want("5") {
		fmt.Fprintln(out, "running figure 5 (refresh rate X)...")
		tb, err := gossipstream.Figure5(opts, nil)
		if err != nil {
			return err
		}
		if err := emit("figure5.txt", tb); err != nil {
			return err
		}
	}
	if want("6") {
		fmt.Fprintln(out, "running figure 6 (feed-me rate Y)...")
		tb, err := gossipstream.Figure6(opts, nil)
		if err != nil {
			return err
		}
		if err := emit("figure6.txt", tb); err != nil {
			return err
		}
	}
	var fig7Results []*gossipstream.ExperimentResult
	if want("7") || want("8") {
		fmt.Fprintln(out, "running figure 7 (churn vs X)...")
		tb, results, err := gossipstream.Figure7(opts, nil, nil)
		if err != nil {
			return err
		}
		fig7Results = results
		if want("7") {
			if err := emit("figure7.txt", tb); err != nil {
				return err
			}
		}
	}
	if want("8") {
		fmt.Fprintln(out, "running figure 8 (complete windows under churn)...")
		tb, err := gossipstream.Figure8(opts, nil, nil, fig7Results)
		if err != nil {
			return err
		}
		if err := emit("figure8.txt", tb); err != nil {
			return err
		}
	}
	if want("claim") || len(selected) == 0 {
		fmt.Fprintln(out, "running §1 churn claim (20% churn, X=1)...")
		claim, err := gossipstream.ChurnClaim(opts)
		if err != nil {
			return err
		}
		text := fmt.Sprintf(
			"Churn claim (20%% simultaneous failures, X=1):\n"+
				"  survivors with <1%% jitter at 20s lag: %.1f%%  (paper: 70%%)\n"+
				"  mean outage span among affected:       %.1fs  (paper: ≈5s)\n"+
				"  missing windows within ±10s of churn:  %.1f%%\n",
			claim.UnaffectedPct, claim.MeanOutage.Seconds(), claim.OutageNearChurnPct)
		fmt.Fprintln(out, text)
		if err := os.WriteFile(filepath.Join(*outDir, "churn_claim.txt"), []byte(text), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "done in %v; tables written to %s/\n", time.Since(start).Round(time.Second), *outDir)

	if *teleOut != "" {
		m := campaignManifest{
			Tool:        "figures",
			Config:      scaled,
			Scale:       *scale,
			WallSeconds: time.Since(start).Seconds(),
			Tables:      exported,
		}
		data, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return fmt.Errorf("-telemetry: %w", err)
		}
		data = append(data, '\n')
		if *teleOut == "-" {
			if _, err := out.Write(data); err != nil {
				return err
			}
		} else if err := os.WriteFile(*teleOut, data, 0o644); err != nil {
			return fmt.Errorf("-telemetry: %w", err)
		}
	}
	return nil
}

// campaignManifest is the -telemetry export of a figures run: the exact
// scaled base configuration every sweep started from, plus each
// generated table in structured form.
type campaignManifest struct {
	Tool        string                        `json:"tool"`
	Config      gossipstream.ExperimentConfig `json:"config"`
	Scale       float64                       `json:"scale"`
	WallSeconds float64                       `json:"wall_seconds"`
	Tables      []tableExport                 `json:"tables"`
}

// tableExport is one figure's table, machine-readable.
type tableExport struct {
	Name    string     `json:"name"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// chartOf renders the table as an ASCII chart when its first column is a
// numeric axis; otherwise it returns "".
func chartOf(tb *gossipstream.Table) string {
	if tb.NumRows() < 2 {
		return ""
	}
	xs := make([]float64, 0, tb.NumRows())
	for i := 0; i < tb.NumRows(); i++ {
		v, err := strconv.ParseFloat(strings.TrimSuffix(tb.Row(i)[0], "s"), 64)
		if err != nil {
			return ""
		}
		xs = append(xs, v)
	}
	var series []metricsSeries
	for c := 1; c < len(tb.Columns); c++ {
		ys := make([]float64, 0, tb.NumRows())
		for i := 0; i < tb.NumRows(); i++ {
			v, err := strconv.ParseFloat(tb.Row(i)[c], 64)
			if err != nil {
				return ""
			}
			ys = append(ys, v)
		}
		series = append(series, metricsSeries{Name: tb.Columns[c], X: xs, Y: ys})
	}
	return gossipstream.RenderChart(tb.Title, 72, 18, series)
}

type metricsSeries = gossipstream.ChartSeries
