package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gossipstream/internal/churn"
	"gossipstream/internal/megasim"
	"gossipstream/internal/metrics"
	"gossipstream/internal/telemetry"
)

// smallCfg is a quick deployment that still exercises shaping, loss,
// retransmission, and FEC.
func smallCfg(seed int64) Config {
	cfg := Defaults()
	cfg.Nodes = 60
	cfg.Seed = seed
	cfg.Layout.Windows = 2
	cfg.Drain = 10 * time.Second
	return cfg
}

// qualityHash digests every node's per-window lags — the "byte-identical
// quality metrics" check: two runs agree iff their hashes agree.
func qualityHash(t *testing.T, res *Result) [32]byte {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	for _, n := range res.Nodes {
		for w := 0; w < n.Quality.Windows(); w++ {
			lag, ok := n.Quality.WindowLag(w)
			if !ok {
				lag = metrics.NeverCompleted
			}
			binary.LittleEndian.PutUint64(buf[:], uint64(lag))
			h.Write(buf[:])
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// TestRunDeterministicReplayDeep upgrades the replay check to the whole
// Result — counters, stats, uploads, event counts — for the default
// one-shard engine, including a retransmission-heavy churn scenario (the
// path that once depended on map iteration order).
func TestRunDeterministicReplayDeep(t *testing.T) {
	cfg := smallCfg(11)
	cfg.Churn = append(cfg.Churn, ChurnAt(cfg.Layout.Duration()/2, 0.3)...)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different Results")
	}
	if qualityHash(t, a) != qualityHash(t, b) {
		t.Fatal("quality metrics not byte-identical")
	}
}

// TestRunShardedDeterministicReplay pins explicit shard counts: a fixed
// (Seed, Shards) pair must reproduce the identical Result across repeated
// runs regardless of goroutine interleaving.
func TestRunShardedDeterministicReplay(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := smallCfg(11)
			cfg.Shards = shards
			cfg.Churn = append(cfg.Churn, ChurnAt(cfg.Layout.Duration()/2, 0.3)...)
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Events == 0 {
				t.Fatal("run executed no events")
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("identical (seed, shards) produced different Results")
			}
			if qualityHash(t, a) != qualityHash(t, b) {
				t.Fatal("quality metrics not byte-identical")
			}
		})
	}
}

// TestRunManyInterleavingIndependence checks that results computed under
// RunMany's worker-pool parallelism are identical to serial Run calls —
// goroutine scheduling must not leak into any Result, on one shard or
// several.
func TestRunManyInterleavingIndependence(t *testing.T) {
	cfgs := []Config{smallCfg(1), smallCfg(2), smallCfg(1), smallCfg(3)}
	cfgs[2].Shards = 2 // one parallel-engine run inside the parallel batch
	batch, err := RunMany(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		solo, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], solo) {
			t.Fatalf("cfg %d: RunMany result differs from serial Run", i)
		}
	}
}

func TestShardsValidation(t *testing.T) {
	cfg := smallCfg(1)
	cfg.Shards = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative Shards accepted")
	}
	// The zero value resolves to one shard, recorded in Result.Config:
	// the run is exactly the explicit one-shard run.
	cfg = smallCfg(1)
	def, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if def.Config.Shards != 1 {
		t.Fatalf("Shards = 0 ran with %d shards, want 1", def.Config.Shards)
	}
	cfg.Shards = 1
	one, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, one) {
		t.Fatal("Shards = 0 and Shards = 1 produced different Results")
	}
	// An unsupported membership must fail with an error naming the
	// supported ones, not silently fall back to full-view sampling.
	cfg = smallCfg(1)
	cfg.Shards = 2
	cfg.Membership = Membership(99)
	_, err = Run(cfg)
	if err == nil {
		t.Fatal("unknown membership accepted")
	}
	if !strings.Contains(err.Error(), "MembershipCyclon") {
		t.Fatalf("error %q does not name the supported memberships", err)
	}
	// Cyclon's config is validated.
	cfg = smallCfg(1)
	cfg.Shards = 2
	cfg.Membership = MembershipCyclon
	cfg.PSS.ViewSize = -3
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid PSS config accepted")
	}
}

// TestOneShardSnapshotsOnSchedule: a one-shard run takes one progress
// snapshot per simulated second, and its Result is otherwise exactly the
// run without telemetry.
func TestOneShardSnapshotsOnSchedule(t *testing.T) {
	cfg := smallCfg(4)
	cfg.Churn = ChurnAt(cfg.Layout.Duration()/2, 0.2)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	var ticks int64
	cfg.Telemetry = &TelemetryOptions{
		SnapshotEvery: time.Second,
		Clock:         func() int64 { ticks++; return ticks },
		OnSnapshot:    func(telemetry.Snapshot) { seen++ },
	}
	obs, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int(obs.Duration / time.Second)
	if len(obs.Snapshots) != want || seen != want {
		t.Fatalf("got %d snapshots (%d observed) over %v, want %d", len(obs.Snapshots), seen, obs.Duration, want)
	}
	for i, s := range obs.Snapshots {
		if s.AtSeconds != float64(i+1) {
			t.Fatalf("snapshot %d at %vs, want %ds", i, s.AtSeconds, i+1)
		}
	}
	if obs.Wall.RunNS <= 0 {
		t.Fatalf("wall profile not sampled: %+v", obs.Wall)
	}
	obs.Snapshots, obs.Wall, obs.Config.Telemetry = nil, telemetry.WallProfile{}, nil
	if !reflect.DeepEqual(plain, obs) {
		t.Fatal("telemetry changed the one-shard Result")
	}
}

// TestShardedBaselineDisseminates mirrors TestRunDisseminatesStream on
// four parallel shards: the baseline scenario must deliver the stream to
// essentially everyone.
func TestShardedBaselineDisseminates(t *testing.T) {
	cfg := smallCfg(5)
	cfg.Nodes = 200
	cfg.Shards = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs := res.SurvivorQualities()
	if got := metrics.MeanCompleteFraction(qs, metrics.InfiniteLag); got < 95 {
		t.Fatalf("mean complete windows offline = %.1f%%, want >= 95%%", got)
	}
}

// TestShardedCatastropheAndHeterogeneous runs the two remaining paper
// scenarios on parallel shards: a catastrophic burst kills the right
// fraction, and a heterogeneous cap mix produces unequal uploads.
func TestShardedCatastropheAndHeterogeneous(t *testing.T) {
	cfg := smallCfg(7)
	cfg.Nodes = 120
	cfg.Shards = 3
	cfg.UploadCapMix = []int64{400_000, 2_000_000}
	cfg.Churn = ChurnAt(cfg.Layout.Duration()/2, 0.25)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dead := 0
	for _, n := range res.Nodes {
		if !n.Survived {
			dead++
		}
	}
	want := int(float64(cfg.Nodes-1)*0.25 + 0.5)
	if dead != want {
		t.Fatalf("catastrophe killed %d nodes, want %d", dead, want)
	}
	// A node's upload cannot breach its cap by more than slack.
	for i, n := range res.Nodes {
		capKbps := float64(cfg.UploadCapMix[i%2]) / 1000
		if n.UploadKbps > capKbps*1.1 {
			t.Fatalf("node %d uploaded %.0f kbps over a %.0f kbps cap", n.ID, n.UploadKbps, capKbps)
		}
	}
}

// ChurnAt adapts churn.Catastrophic without importing it in every test.
func ChurnAt(at time.Duration, fraction float64) []churn.Event {
	return []churn.Event{{At: at, Fraction: fraction}}
}

// TestCalendarQueue2kCyclonChurnTwin is the calendar-scheduler acceptance
// run: a 2k-node sharded deployment over Cyclon partial views under
// sustained Poisson churn, run twice on the calendar queue — replays must
// be deep-equal with byte-identical quality metrics — and once on the
// heap, whose Result must match the calendar runs exactly (the scheduler
// choice may change wall time, never outcomes). Skipped under -short.
func TestCalendarQueue2kCyclonChurnTwin(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-node queue-ablation twin run skipped in -short mode")
	}
	cfg := Defaults()
	cfg.Nodes = 2000
	cfg.Shards = 3
	cfg.Seed = 3
	cfg.Layout.Windows = 5 // ≈9 s of stream
	cfg.Drain = 8 * time.Second
	cfg.Membership = MembershipCyclon
	proc := churn.SustainedPoisson(20, 20) // 1%/s of the initial 2k
	cfg.ChurnProcess = &proc
	cfg.Queue = megasim.QueueCalendar

	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("calendar queue: identical (seed, shards) produced different Results")
	}
	if qualityHash(t, a) != qualityHash(t, b) {
		t.Fatal("calendar queue: quality metrics not byte-identical")
	}

	hcfg := cfg
	hcfg.Queue = megasim.QueueHeap
	h, err := Run(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	if qualityHash(t, h) != qualityHash(t, a) {
		t.Fatal("heap and calendar engines disagree on quality metrics")
	}
	// The recorded Config.Queue is the one intended difference; everything
	// else — counters, stats, shard loads, admissions — must be identical.
	h.Config.Queue = a.Config.Queue
	if !reflect.DeepEqual(a, h) {
		t.Fatal("heap and calendar engines produced different Results")
	}
	if a.Events == 0 {
		t.Fatal("queue-ablation run executed no events")
	}
}

// TestSharded10kPoissonChurnTwin is the sustained-churn acceptance run: two
// 10k-node sharded deployments under Poisson churn (join ≈ leave ≈ 1% of
// the population per second) over Cyclon partial views must produce
// deep-equal Results with byte-identical quality metrics — runtime
// admission replays exactly — and the nodes present for whole windows
// (after the bootstrap/delivery grace) must still see >= 95% of their
// windows complete. Skipped under -short and the race detector.
func TestSharded10kPoissonChurnTwin(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("10k-node acceptance run skipped in -short / race mode")
	}
	cfg := Defaults()
	cfg.Nodes = 10_000
	cfg.Shards = 4
	cfg.Seed = 1
	cfg.Layout.Windows = 9 // ≈16 s of stream
	cfg.Drain = 8 * time.Second
	cfg.Membership = MembershipCyclon
	proc := churn.SustainedPoisson(100, 100) // 1%/s of the initial 10k
	cfg.ChurnProcess = &proc

	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("10k Poisson churn: identical (seed, shards) produced different Results")
	}
	if qualityHash(t, a) != qualityHash(t, b) {
		t.Fatal("10k Poisson churn: quality metrics not byte-identical")
	}

	joined, departed := 0, 0
	for _, n := range a.Nodes {
		if n.JoinedAt > 0 {
			joined++
		}
		if !n.Survived {
			departed++
		}
	}
	// ≈16 s at 100/s each way: sanity-check the process actually churned.
	if joined < 1000 || departed < 1000 {
		t.Fatalf("joined = %d, departed = %d, want >= 1000 each", joined, departed)
	}
	qs := a.LifetimeQualities(cfg.BootstrapGrace())
	got := metrics.MeanCompleteFraction(qs, metrics.InfiniteLag)
	t.Logf("10k Poisson churn: %d joined, %d departed, %.2f%% mean complete windows over %d present nodes (%d events)",
		joined, departed, got, len(qs), a.Events)
	if got < 95 {
		t.Fatalf("mean complete windows among present nodes = %.2f%%, want >= 95%%", got)
	}
}
