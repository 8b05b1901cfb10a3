package experiment

import (
	"reflect"
	"testing"
	"time"

	"gossipstream/internal/churn"
	"gossipstream/internal/metrics"
	"gossipstream/internal/telemetry"
)

// Streaming-metrics coverage: the barrier-folded scoring path must be a
// drop-in for batch scoring — same figure columns, bit for bit — while
// retaining no per-node state. The twin tests run the same (seed, shards)
// deployment both ways and compare every scored surface exactly.

// twinCfg is a sharded deployment sized for the twin property test.
func twinCfg(seed int64, nodes int) Config {
	cfg := Defaults()
	cfg.Seed = seed
	cfg.Nodes = nodes
	cfg.Shards = 4
	cfg.Layout.Windows = 4 // ≈7 s of stream
	cfg.Drain = 8 * time.Second
	return cfg
}

// runTwin executes cfg once with retained receivers and once with
// streaming metrics, asserting the runs executed identical event
// sequences before anyone compares scores.
func runTwin(t *testing.T, cfg Config) (batch, streaming *Result) {
	t.Helper()
	cfg.StreamingMetrics = false
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StreamingMetrics = true
	streaming, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Events != streaming.Events {
		t.Fatalf("streaming fold changed the run itself: %d vs %d events", batch.Events, streaming.Events)
	}
	if batch.TotalTraffic != streaming.TotalTraffic {
		t.Fatalf("streaming fold changed traffic totals:\n%+v\n%+v", batch.TotalTraffic, streaming.TotalTraffic)
	}
	if len(streaming.Nodes) != 0 {
		t.Fatalf("streaming run retained %d NodeResults, want 0", len(streaming.Nodes))
	}
	if streaming.Streaming == nil || batch.Streaming != nil {
		t.Fatal("Streaming field set on the wrong twin")
	}
	if !reflect.DeepEqual(batch.ViewInDegree, streaming.ViewInDegree) {
		t.Fatalf("view in-degree differs between twins:\n%+v\n%+v",
			batch.ViewInDegree.Summary(), streaming.ViewInDegree.Summary())
	}
	return batch, streaming
}

// assertTwinScores compares every scored surface of the two twins for
// exact float equality across all probes.
func assertTwinScores(t *testing.T, batch, streaming *Result) {
	t.Helper()
	const thr = metrics.DefaultJitterThreshold
	for _, probe := range telemetry.LagProbes {
		if a, b := batch.ScoredViewablePct(probe, thr), streaming.ScoredViewablePct(probe, thr); a != b {
			t.Errorf("ScoredViewablePct(%v): batch %v, streaming %v", probe, a, b)
		}
		if a, b := batch.ScoredMeanCompletePct(probe), streaming.ScoredMeanCompletePct(probe); a != b {
			t.Errorf("ScoredMeanCompletePct(%v): batch %v, streaming %v", probe, a, b)
		}
		if a, b := batch.ScoredLagCDFAt(probe, thr), streaming.ScoredLagCDFAt(probe, thr); a != b {
			t.Errorf("ScoredLagCDFAt(%v): batch %v, streaming %v", probe, a, b)
		}
		if a, b := batch.SurvivorViewablePct(probe, thr), streaming.SurvivorViewablePct(probe, thr); a != b {
			t.Errorf("SurvivorViewablePct(%v): batch %v, streaming %v", probe, a, b)
		}
		if a, b := batch.SurvivorMeanCompletePct(probe), streaming.SurvivorMeanCompletePct(probe); a != b {
			t.Errorf("SurvivorMeanCompletePct(%v): batch %v, streaming %v", probe, a, b)
		}
		if a, b := batch.PresentMeanCompletePct(probe), streaming.PresentMeanCompletePct(probe); a != b {
			t.Errorf("PresentMeanCompletePct(%v): batch %v, streaming %v", probe, a, b)
		}
	}
	for name, pair := range map[string][2]int{
		"NodeCount":     {batch.NodeCount(), streaming.NodeCount()},
		"SurvivorCount": {batch.SurvivorCount(), streaming.SurvivorCount()},
		"JoinedCount":   {batch.JoinedCount(), streaming.JoinedCount()},
		"DepartedCount": {batch.DepartedCount(), streaming.DepartedCount()},
		"PresentCount":  {batch.PresentCount(), streaming.PresentCount()},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s: batch %d, streaming %d", name, pair[0], pair[1])
		}
	}
	if a, b := batch.UploadSummary(), streaming.UploadSummary(); a != b {
		t.Errorf("UploadSummary: batch %+v, streaming %+v", a, b)
	}
}

// TestStreamingTwinSustainedChurn is the acceptance twin: a 2k-node
// Cyclon deployment under Poisson join/leave churn, scored streaming and
// batch, must agree on every figure column exactly. Departing nodes are
// fully released at their crash barriers on the streaming side, so this
// also proves the early release loses no scoring information.
func TestStreamingTwinSustainedChurn(t *testing.T) {
	nodes := 2000
	if testing.Short() {
		nodes = 300
	}
	cfg := twinCfg(11, nodes)
	cfg.Membership = MembershipCyclon
	cfg.PSS.ViewSize = 20
	cfg.PSS.ShuffleLen = 8
	cfg.PSS.Period = 500 * time.Millisecond
	proc := churn.SustainedPoisson(2, 2)
	cfg.ChurnProcess = &proc
	batch, streaming := runTwin(t, cfg)
	if streaming.Streaming.Departed == 0 || streaming.Streaming.Joined == 0 {
		t.Fatalf("churn twin saw no churn: %+v", streaming.Streaming)
	}
	if streaming.ViewInDegree.Count() == 0 {
		t.Fatal("Cyclon run measured no view in-degree")
	}
	assertTwinScores(t, batch, streaming)
}

// TestStreamingTwinBurst: catastrophic burst churn (no process) scores
// the survivor population; the twins must agree there too.
func TestStreamingTwinBurst(t *testing.T) {
	cfg := twinCfg(13, 400)
	cfg.Churn = churn.Catastrophic(cfg.Layout.Duration()/2, 0.2)
	batch, streaming := runTwin(t, cfg)
	if streaming.Streaming.Departed == 0 {
		t.Fatal("burst twin crashed nobody")
	}
	assertTwinScores(t, batch, streaming)
}

// TestStreamingReplayDeterministic: a streaming run replays bit-identically
// (the fold adds no nondeterminism).
func TestStreamingReplayDeterministic(t *testing.T) {
	cfg := twinCfg(17, 300)
	cfg.Churn = churn.Catastrophic(cfg.Layout.Duration()/2, 0.3)
	cfg.StreamingMetrics = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Streaming, b.Streaming) {
		t.Fatal("streaming fold replayed differently for identical (seed, shards)")
	}
}

// TestStreamingMetricsValidation: streaming scoring runs at the default
// shard count and retains no per-node results.
func TestStreamingMetricsValidation(t *testing.T) {
	cfg := smallCfg(1)
	cfg.StreamingMetrics = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("StreamingMetrics at the default shard count: %v", err)
	}
	if len(res.Nodes) != 0 || res.Streaming == nil || res.Streaming.Nodes != cfg.Nodes-1 {
		t.Fatalf("streaming run retained %d node results, folded %+v", len(res.Nodes), res.Streaming)
	}
}

// TestSentinelConstantsPinned pins telemetry's restated sentinels to the
// metrics originals; telemetry must stay a leaf package, so it cannot
// import them.
func TestSentinelConstantsPinned(t *testing.T) {
	if telemetry.InfiniteLag != metrics.InfiniteLag {
		t.Fatal("telemetry.InfiniteLag diverged from metrics.InfiniteLag")
	}
	if telemetry.NeverCompleted != metrics.NeverCompleted {
		t.Fatal("telemetry.NeverCompleted diverged from metrics.NeverCompleted")
	}
	if telemetry.DefaultJitterThreshold != metrics.DefaultJitterThreshold {
		t.Fatal("telemetry.DefaultJitterThreshold diverged from metrics.DefaultJitterThreshold")
	}
}
