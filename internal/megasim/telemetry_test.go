package megasim

import (
	"testing"
	"time"

	"gossipstream/internal/shaping"
	"gossipstream/internal/telemetry"
	"gossipstream/internal/wire"
)

// loadRun is a chatter population with telemetry hooks, returning the
// engine after Run for accessor checks.
func loadRun(t *testing.T, shards int, snapEvery time.Duration, snaps *[]time.Duration, clock func() int64) *Engine {
	t.Helper()
	cfg := Config{
		Shards: shards,
		Seed:   11,
		Net: NetConfig{
			LossRate:          0.05,
			BaseLatencyMedian: 5 * time.Millisecond,
			BaseLatencySigma:  0.4,
			JitterFrac:        0.3,
			PairSpread:        0.3,
		},
	}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	nodes := make([]*chatter, n)
	for i := 0; i < n; i++ {
		env := e.NodeEnv(NodeID(i), NewRand(int64(100+i)))
		nodes[i] = &chatter{env: env, n: n, period: 4 * time.Millisecond}
		e.AddNode(nodes[i], 256_000, 4096)
	}
	for _, c := range nodes {
		c.start()
	}
	e.AtBarrier(100*time.Millisecond, func() { e.Crash(NodeID(n - 1)) })
	if snapEvery > 0 {
		e.SetSnapshot(snapEvery, func(at time.Duration) { *snaps = append(*snaps, at) })
	}
	if clock != nil {
		e.SetWallClock(clock)
	}
	if err := e.Run(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestShardLoadsConsistent(t *testing.T) {
	e := loadRun(t, 4, 0, nil, nil)
	loads := e.ShardLoads()
	if len(loads) != 4 {
		t.Fatalf("got %d shard loads, want 4", len(loads))
	}
	var events, timers, delivers, ticks, out, in uint64
	for i, l := range loads {
		if l.Shard != i {
			t.Fatalf("load %d labeled shard %d", i, l.Shard)
		}
		if l.Windows == 0 {
			t.Fatalf("shard %d ran no windows", i)
		}
		if l.HeapPeak == 0 {
			t.Fatalf("shard %d recorded no heap high-water", i)
		}
		if l.Pending != 0 {
			// Chatter reschedules forever; pending events past the horizon
			// are expected. Just pin the field is non-negative.
			if l.Pending < 0 {
				t.Fatalf("shard %d pending %d", i, l.Pending)
			}
		}
		events += l.Events
		timers += l.Timers
		delivers += l.Delivers
		ticks += l.MemberTicks
		out += l.OutboxOut
		in += l.OutboxIn
	}
	if events != e.Fired() {
		t.Fatalf("shard events sum %d != Fired %d", events, e.Fired())
	}
	if timers+delivers+ticks != events {
		t.Fatalf("per-kind sum %d != events %d", timers+delivers+ticks, events)
	}
	if out != in {
		t.Fatalf("cross-shard conservation: out %d != in %d", out, in)
	}
	if out == 0 {
		t.Fatal("4-shard chatter produced no cross-shard traffic")
	}
	if got := e.Pending(); got < 0 {
		t.Fatalf("Pending() = %d", got)
	}
}

func TestSingleShardHasNoOutboxTraffic(t *testing.T) {
	e := loadRun(t, 1, 0, nil, nil)
	l := e.ShardLoads()[0]
	if l.OutboxOut != 0 || l.OutboxIn != 0 {
		t.Fatalf("single shard moved %d/%d cross-shard messages", l.OutboxOut, l.OutboxIn)
	}
	if l.Delivers == 0 || l.Timers == 0 || l.MemberTicks != 0 {
		t.Fatalf("unexpected kind counts: %+v", l)
	}
}

func TestLiveTracksCrashes(t *testing.T) {
	e, err := newEngine(Config{Shards: 1, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		env := e.NodeEnv(NodeID(i), NewRand(int64(i)))
		e.AddNode(&recorder{env: env}, shaping.Unlimited, 0)
	}
	if e.Live() != 3 {
		t.Fatalf("Live = %d, want 3", e.Live())
	}
	e.Crash(1)
	e.Crash(1) // idempotent
	if e.Live() != 2 {
		t.Fatalf("Live = %d after crash, want 2", e.Live())
	}
}

func TestReleaseFreesOnlyDeadNodes(t *testing.T) {
	const lat = 10 * time.Millisecond
	e, err := newEngine(Config{Shards: 2, Net: flatNet(lat)})
	if err != nil {
		t.Fatal(err)
	}
	env0 := e.NodeEnv(0, NewRand(1))
	e.AddNode(&recorder{env: env0}, shaping.Unlimited, 0)
	e.AddNode(&recorder{env: e.NodeEnv(1, NewRand(2))}, 256_000, 4096)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Release of a live node did not panic")
			}
		}()
		e.Release(1)
	}()

	// Crash + release at a barrier while a message is in flight toward the
	// released node: the delivery must be dead-dropped, not dereference
	// the cleared handler.
	env0.After(4*time.Millisecond, func() { env0.Send(1, wire.FeedMe{}) })
	e.AtBarrier(5*time.Millisecond, func() {
		e.Crash(1)
		e.Release(1)
	})
	env0.After(30*time.Millisecond, func() { env0.Send(1, wire.FeedMe{}) })
	if err := e.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := e.NodeStats(1).DeadDrops; got == 0 {
		t.Fatal("messages to a released node were not dead-dropped")
	}
	if e.BaseLatency(1) <= 0 {
		t.Fatal("released node lost its base latency")
	}
	if e.Live() != 1 {
		t.Fatalf("Live = %d, want 1", e.Live())
	}
}

// TestSnapshotsDoNotPerturbTheRun is the zero-observer-effect guarantee:
// a run with snapshots enabled is bit-identical to the same run without.
func TestSnapshotsDoNotPerturbTheRun(t *testing.T) {
	base := loadRun(t, 4, 0, nil, nil)
	var snaps []time.Duration
	obs := loadRun(t, 4, 20*time.Millisecond, &snaps, nil)
	if base.Fired() != obs.Fired() {
		t.Fatalf("snapshots changed the event count: %d vs %d", base.Fired(), obs.Fired())
	}
	for i := 0; i < base.N(); i++ {
		if base.NodeStats(NodeID(i)) != obs.NodeStats(NodeID(i)) {
			t.Fatalf("snapshots changed node %d's counters", i)
		}
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots taken")
	}
	prev := time.Duration(-1)
	for _, at := range snaps {
		if at <= prev {
			t.Fatalf("snapshot times not increasing: %v after %v", at, prev)
		}
		prev = at
	}
}

// TestSingleShardSnapshotsOnSchedule: one shard runs the gap between
// barriers as a single window, which must still pause at every snapshot
// instant — without changing the run or its window count.
func TestSingleShardSnapshotsOnSchedule(t *testing.T) {
	base := loadRun(t, 1, 0, nil, nil)
	var snaps []time.Duration
	obs := loadRun(t, 1, 20*time.Millisecond, &snaps, nil)
	if len(snaps) != 15 {
		t.Fatalf("got %d snapshots over 300ms every 20ms, want 15: %v", len(snaps), snaps)
	}
	for i, at := range snaps {
		if want := time.Duration(i+1) * 20 * time.Millisecond; at != want {
			t.Fatalf("snapshot %d at %v, want %v", i, at, want)
		}
	}
	if base.Fired() != obs.Fired() {
		t.Fatalf("snapshots changed the event count: %d vs %d", base.Fired(), obs.Fired())
	}
	for i := 0; i < base.N(); i++ {
		if base.NodeStats(NodeID(i)) != obs.NodeStats(NodeID(i)) {
			t.Fatalf("snapshots changed node %d's counters", i)
		}
	}
	if b, o := base.ShardLoads(), obs.ShardLoads(); b[0] != o[0] {
		t.Fatalf("snapshot pauses changed the shard load:\n%+v\n%+v", b[0], o[0])
	}
}

// TestWallProfileSampledOnlyWithClock: without an injected clock the
// profile stays zero; with one (a deterministic counter — no real time
// needed) every phase accumulates.
func TestWallProfileSampledOnlyWithClock(t *testing.T) {
	e := loadRun(t, 2, 0, nil, nil)
	if e.WallProfile() != (telemetry.WallProfile{}) {
		t.Fatalf("wall profile without clock: %+v", e.WallProfile())
	}
	var ticks int64
	clock := func() int64 { ticks++; return ticks }
	e2 := loadRun(t, 2, 0, nil, clock)
	w := e2.WallProfile()
	if w.RunNS <= 0 || w.MergeNS <= 0 || w.BarrierNS <= 0 {
		t.Fatalf("wall profile with clock: %+v", w)
	}
	// The fake clock must not perturb the simulation itself.
	if e.Fired() != e2.Fired() {
		t.Fatalf("clock changed the event count: %d vs %d", e.Fired(), e2.Fired())
	}
}

func TestTelemetryHooksRejectLateRegistration(t *testing.T) {
	e := loadRun(t, 1, 0, nil, nil)
	for name, fn := range map[string]func(){
		"SetSnapshot":  func() { e.SetSnapshot(time.Second, func(time.Duration) {}) },
		"SetWallClock": func() { e.SetWallClock(func() int64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after Run did not panic", name)
				}
			}()
			fn()
		}()
	}
}
