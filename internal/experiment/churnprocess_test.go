package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"gossipstream/internal/churn"
	"gossipstream/internal/metrics"
)

// Sustained-churn coverage: Poisson join/leave over partial views with
// runtime bootstrap. The 10k acceptance twin lives in determinism_test.go.

// sustainedCfg is a small deployment under sustained churn: Cyclon views
// with a fast shuffle period (the stream is short, so bootstrap must be
// quick relative to it).
func sustainedCfg(seed int64, joinPerSec, leavePerSec float64) Config {
	cfg := smallCfg(seed)
	cfg.Nodes = 150
	cfg.Shards = 3
	cfg.Membership = MembershipCyclon
	cfg.Layout.Windows = 4 // ≈7 s of stream
	cfg.Drain = 8 * time.Second
	cfg.PSS.ViewSize = 20
	cfg.PSS.ShuffleLen = 8
	cfg.PSS.Period = 500 * time.Millisecond
	proc := churn.SustainedPoisson(joinPerSec, leavePerSec)
	cfg.ChurnProcess = &proc
	return cfg
}

func TestChurnProcessValidation(t *testing.T) {
	proc := churn.SustainedPoisson(1, 1)

	// Runtime admission works at the default shard count.
	cfg := smallCfg(1)
	cfg.Membership = MembershipCyclon
	cfg.ChurnProcess = &proc
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("churn process at the default shard count: %v", err)
	}
	if res.JoinedCount() == 0 {
		t.Fatal("no node admitted at runtime")
	}

	// Static full views cannot learn joined nodes.
	cfg = smallCfg(1)
	cfg.Shards = 2
	cfg.ChurnProcess = &proc
	_, err = Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "MembershipCyclon") {
		t.Fatalf("full view + joins accepted (err = %v)", err)
	}

	// Leaves-only sustained churn is fine over a static full view.
	cfg = smallCfg(2)
	cfg.Shards = 2
	leaves := churn.SustainedPoisson(0, 1)
	cfg.ChurnProcess = &leaves
	if _, err := Run(cfg); err != nil {
		t.Fatalf("leaves-only process over full view failed: %v", err)
	}

	// Malformed rates are rejected.
	cfg = smallCfg(1)
	cfg.Shards = 2
	cfg.Membership = MembershipCyclon
	bad := churn.Process{JoinPerSec: math.NaN()}
	cfg.ChurnProcess = &bad
	if _, err := Run(cfg); err == nil {
		t.Fatal("NaN join rate accepted")
	}

	// A zero process is inert: it needs no membership support.
	cfg = smallCfg(1)
	zero := churn.Process{}
	cfg.ChurnProcess = &zero
	if _, err := Run(cfg); err != nil {
		t.Fatalf("zero process over full view failed: %v", err)
	}
}

// TestSustainedChurnJoinsAndLeaves: the process actually admits and removes
// nodes, lifetimes are recorded, and the stream keeps flowing to the nodes
// present for whole windows.
func TestSustainedChurnJoinsAndLeaves(t *testing.T) {
	cfg := sustainedCfg(3, 2, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) <= cfg.Nodes-1 {
		t.Fatalf("result holds %d nodes, want > %d (joins missing)", len(res.Nodes), cfg.Nodes-1)
	}
	joined, departed := 0, 0
	for _, n := range res.Nodes {
		if n.JoinedAt > 0 {
			joined++
			if int(n.ID) < cfg.Nodes {
				t.Fatalf("setup node %d has JoinedAt %v", n.ID, n.JoinedAt)
			}
		}
		if !n.Survived {
			departed++
			if n.LeftAt <= 0 || n.LeftAt >= res.Duration {
				t.Fatalf("departed node %d has LeftAt %v, want in (0, %v)", n.ID, n.LeftAt, res.Duration)
			}
		} else if n.LeftAt != res.Duration {
			t.Fatalf("survivor %d has LeftAt %v, want %v", n.ID, n.LeftAt, res.Duration)
		}
	}
	if joined == 0 || departed == 0 {
		t.Fatalf("joined = %d, departed = %d, want both > 0 under join=leave=2/s", joined, departed)
	}
	// Nodes present for whole windows keep viewing the stream.
	qs := res.LifetimeQualities(0)
	if len(qs) == 0 {
		t.Fatal("no node was present for a whole window")
	}
	// A flowing-stream floor, not a quality claim: at 150 nodes × 4
	// windows under 2/s churn each way the per-seed scatter is ±4pp
	// (measured ≈86–96% across seeds 1–8). The statistical bars live in
	// the 10k acceptance tests (TestSharded10kPoissonChurnTwin, ≥95%).
	if got := metrics.MeanCompleteFraction(qs, metrics.InfiniteLag); got < 85 {
		t.Fatalf("mean complete windows among present nodes = %.1f%%, want >= 85%%", got)
	}
}

// TestSustainedChurnReplayDeterministic: the full Result of a churn-process
// run — including every runtime-admitted node — replays bit-identically
// for a fixed (seed, shards).
func TestSustainedChurnReplayDeterministic(t *testing.T) {
	cfg := sustainedCfg(7, 2, 2)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sustained churn: identical (seed, shards) produced different Results")
	}
	if qualityHash(t, a) != qualityHash(t, b) {
		t.Fatal("sustained churn: quality metrics not byte-identical")
	}
}

// TestSustainedChurnBootstrapRegression: every node that joins with enough
// stream left must reach at least one complete window — runtime bootstrap
// over partial views works end to end, not just on average.
func TestSustainedChurnBootstrapRegression(t *testing.T) {
	cfg := sustainedCfg(5, 3, 0) // joins only: isolate bootstrap
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A joiner needs a few shuffle periods to enter live views plus one
	// whole window published after that; only joiners with that much
	// stream left are held to the bar.
	grace := 4 * cfg.PSS.Period
	windowTime := cfg.Layout.Duration() / time.Duration(cfg.Layout.Windows)
	deadline := cfg.Layout.Duration() - grace - 2*windowTime
	joiners, converged := 0, 0
	for _, n := range res.Nodes {
		if n.JoinedAt == 0 || n.JoinedAt > deadline {
			continue
		}
		joiners++
		complete := 0
		for w := 0; w < n.Quality.Windows(); w++ {
			if _, ok := n.Quality.WindowLag(w); ok {
				complete++
			}
		}
		if complete >= 1 {
			converged++
		} else {
			t.Errorf("node %d joined at %v but completed no window by the end", n.ID, n.JoinedAt)
		}
	}
	if joiners == 0 {
		t.Fatal("no node joined early enough to test bootstrap")
	}
	t.Logf("bootstrap: %d/%d early joiners reached a complete window", converged, joiners)
}

// TestLifetimeQualities pins the window-eligibility mask on a crafted
// Result: joins exclude early windows (plus grace), leaves exclude late
// ones, empty masks drop the node.
func TestLifetimeQualities(t *testing.T) {
	cfg := Defaults()
	cfg.Layout.Windows = 4
	l := cfg.Layout
	windowTime := l.Duration() / 4
	end := l.Duration() + time.Second
	complete := make([]time.Duration, 4) // all-zero lags: every window done
	res := &Result{
		Config:   cfg,
		Duration: end,
		Nodes: []NodeResult{
			// Setup-time survivor: all 4 windows count, grace ignored.
			{Survived: true, LeftAt: end, Quality: metrics.QualityFromLags(complete)},
			// Joined just after window 0 started: windows 1-3 count.
			{Survived: true, JoinedAt: windowTime / 2, LeftAt: end, Quality: metrics.QualityFromLags(complete)},
			// Left mid-window-2: windows 0-1 count.
			{Survived: false, LeftAt: 2*windowTime + windowTime/2, Quality: metrics.QualityFromLags(complete)},
			// Joined too late for anything: omitted.
			{Survived: true, JoinedAt: l.Duration() - windowTime/2, LeftAt: end, Quality: metrics.QualityFromLags(complete)},
		},
	}
	qs := res.LifetimeQualities(0)
	if len(qs) != 3 {
		t.Fatalf("got %d qualities, want 3 (late joiner omitted)", len(qs))
	}
	wantWindows := []int{4, 3, 2}
	for i, q := range qs {
		if q.Windows() != wantWindows[i] {
			t.Fatalf("node %d: %d eligible windows, want %d", i, q.Windows(), wantWindows[i])
		}
	}
	// A grace of one window shaves one more window off the joiner (bootstrap
	// allowance) and one off the leaver (delivery allowance), and leaves
	// the setup-time survivor untouched.
	qs = res.LifetimeQualities(windowTime)
	if qs[0].Windows() != 4 || qs[1].Windows() != 2 || qs[2].Windows() != 1 {
		t.Fatalf("grace mask wrong: %d/%d/%d windows", qs[0].Windows(), qs[1].Windows(), qs[2].Windows())
	}
}
