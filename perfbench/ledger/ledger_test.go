package ledger

import (
	"math"
	"strings"
	"testing"

	"gossipstream"
)

func TestSetupAndThroughput(t *testing.T) {
	w := gossipstream.WallProfile{RunNS: 7e9, MergeNS: 2e9, BarrierNS: 5e8}
	if got := LoopNS(w); got != 9.5e9 {
		t.Fatalf("LoopNS = %d, want 9.5e9", got)
	}
	if got := SetupSeconds(10e9, w); got != 0.5 {
		t.Errorf("SetupSeconds = %v, want 0.5", got)
	}
	// 19M events over 9.5 s of loop: wall_s − setup_s, not wall_s.
	if got := EventsPerSecond(19_000_000, w); got != 2e6 {
		t.Errorf("EventsPerSecond = %v, want 2e6", got)
	}
	if got := EventsPerSecond(5, gossipstream.WallProfile{}); got != 0 {
		t.Errorf("EventsPerSecond without a loop = %v, want 0", got)
	}
}

func TestMetrics(t *testing.T) {
	var m gossipstream.RunManifest
	m.Events = 1000
	m.Wall = gossipstream.WallProfile{RunNS: 1.5e9}
	m.Quality.MeanCompletePct = 99.5
	m.Quality.Viewable20sPct = 91
	r := Run{WallNS: 2e9, CPUNS: 3e9, Allocs: 4000, AllocBytes: 150_000, PeakRSSBytes: 3 << 20, Manifest: m}
	want := map[string]float64{
		"wall_s":           2,
		"setup_s":          0.5,
		"events_per_s":     1000 / 1.5,
		"cpu_s":            3,
		"allocs_per_event": 4,
		"bytes_per_event":  150,
		"peak_rss_mb":      3,
		"complete_pct":     99.5,
		"viewable_20s_pct": 91,
	}
	got := Metrics(r)
	if len(got) != len(want) || len(Units) != len(want) {
		t.Fatalf("Metrics has %d entries and Units %d, want %d", len(got), len(Units), len(want))
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
		if Units[k] == "" {
			t.Errorf("%s has no unit", k)
		}
	}

	// On a host whose probe takes twice the reference time, host times
	// halve and throughput doubles; counts and quality are untouched.
	r.ProbeNS = 2 * RefProbeNS
	want["wall_s"], want["setup_s"], want["cpu_s"] = 1, 0.25, 1.5
	want["events_per_s"] = 2000 / 1.5
	got = Metrics(r)
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("scaled %s = %v, want %v", k, got[k], v)
		}
	}
}

// conserved returns a manifest whose traffic balances: 100 sent, 90
// received, 3 lost at random, 2 dead-dropped, 5 in flight with 8 events
// pending.
func conserved() gossipstream.RunManifest {
	var m gossipstream.RunManifest
	m.Events = 500
	m.Traffic.SentMsgs[1], m.Traffic.SentMsgs[3] = 60, 40
	m.Traffic.RecvMsgs[1], m.Traffic.RecvMsgs[3] = 55, 35
	m.Traffic.RandomDrops = 3
	m.Traffic.DeadDrops = 2
	m.Traffic.CongestionDrops = 50 // never counted sent
	m.ShardLoads = []gossipstream.ShardLoad{{Shard: 0, Pending: 6}, {Shard: 1, Pending: 2}}
	return m
}

func TestCheckConservation(t *testing.T) {
	if err := CheckConservation(conserved()); err != nil {
		t.Fatalf("balanced manifest rejected: %v", err)
	}
	doctor := map[string]func(*gossipstream.RunManifest){
		"extra receive":   func(m *gossipstream.RunManifest) { m.Traffic.RecvMsgs[1] += 6 },
		"invented drops":  func(m *gossipstream.RunManifest) { m.Traffic.DeadDrops += 10 },
		"lost in flight":  func(m *gossipstream.RunManifest) { m.Traffic.SentMsgs[3] += 4 },
		"nothing pending": func(m *gossipstream.RunManifest) { m.ShardLoads = nil },
	}
	for name, f := range doctor {
		m := conserved()
		f(&m)
		if err := CheckConservation(m); err == nil {
			t.Errorf("%s: doctored manifest accepted", name)
		}
	}
}

func TestCheckRun(t *testing.T) {
	ok := Run{Manifest: conserved()}
	if err := CheckRun(ok); err != nil {
		t.Fatalf("good run rejected: %v", err)
	}
	failed := ok
	failed.Err = "boom"
	if err := CheckRun(failed); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("failed run: err = %v", err)
	}
	empty := ok
	empty.Manifest.Events = 0
	if err := CheckRun(empty); err == nil {
		t.Error("run without events accepted")
	}
}

func TestSameManifest(t *testing.T) {
	a, b := conserved(), conserved()
	a.Wall.RunNS, b.Wall.RunNS = 1, 2
	if same, err := SameManifest(a, b); err != nil || !same {
		t.Fatalf("manifests differing only in wall time: same = %v, err = %v", same, err)
	}
	b.Quality.MeanCompletePct = 1
	if same, _ := SameManifest(a, b); same {
		t.Error("manifests with different quality compared equal")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := Median(xs); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if xs[0] != 4 {
		t.Error("Median reordered its input")
	}
}

func TestSameOutcome(t *testing.T) {
	a, b := conserved(), conserved()
	a.Tool, b.Tool = "traced", "untraced"
	a.ViewInDegree.Count = 7
	a.Wall.RunNS = 3
	if same, err := SameOutcome(a, b); err != nil || !same {
		t.Fatalf("outcomes differing only in tool, in-degree and wall: same = %v, err = %v", same, err)
	}
	a.Events++
	if same, _ := SameOutcome(a, b); same {
		t.Error("outcomes with different event counts compared equal")
	}
}
