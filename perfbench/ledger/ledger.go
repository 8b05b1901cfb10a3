// Package ledger holds the benchmark's arithmetic: the record one
// untraced run reports, the metrics derived from it, the output checks a
// run must pass before its timings count, and the result line the
// benchmark prints. It depends only on the root gossipstream facade.
package ledger

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"gossipstream"
)

// Run is what one untraced worker process reports for one deployment.
type Run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Err is the error RunExperiment returned, if any.
	Err string `json:"err,omitempty"`
	// WallNS is host time from the RunExperiment call to the scored
	// manifest.
	WallNS int64 `json:"wall_ns"`
	// CPUNS is the process's user plus system CPU time over the same span.
	CPUNS int64 `json:"cpu_ns"`
	// Allocs and AllocBytes are the heap objects and bytes allocated over
	// the same span (runtime/metrics).
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// PeakRSSBytes is the process's peak resident set (VmHWM).
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
	// ProbeNS is the host-speed probe's time around the run: the mean of
	// the probe just before and just after it. Zero when not measured.
	ProbeNS float64 `json:"probe_ns,omitempty"`
	// Manifest is ExperimentResult.Manifest of the run.
	Manifest gossipstream.RunManifest `json:"manifest"`
}

// LoopNS is the host time the engine spent in its event loop: window
// execution, cross-shard merges and barrier callbacks, as the engine's
// injected wall clock measured them.
func LoopNS(w gossipstream.WallProfile) int64 {
	return w.RunNS + w.MergeNS + w.BarrierNS
}

// SetupSeconds is the part of a run's wall time outside the engine's
// event loop: building the deployment before it and scoring after it.
func SetupSeconds(wallNS int64, w gossipstream.WallProfile) float64 {
	return float64(wallNS-LoopNS(w)) / 1e9
}

// EventsPerSecond is events executed per host second of event loop, that
// is, per second of wall time minus set-up time.
func EventsPerSecond(events uint64, w gossipstream.WallProfile) float64 {
	loop := LoopNS(w)
	if loop <= 0 {
		return 0
	}
	return float64(events) / (float64(loop) / 1e9)
}

// RefProbeNS is the host-speed probe's time on the reference host: host
// times are reported as they would read on a host where the probe takes
// this long.
const RefProbeNS = 50e6

// HostScale is the factor that turns host time measured at the given
// probe time into reference-host time; 1 when the probe was not measured.
// The shared host's memory latency drifts by up to half over minutes and
// the run times drift with it; the probe, which does not run simulator
// code, drifts alike, so the ratio stays put.
func HostScale(probeNS float64) float64 {
	if probeNS <= 0 {
		return 1
	}
	return RefProbeNS / probeNS
}

// Metrics maps a run to its end-to-end metrics, by the names BENCHMARK.json
// declares. Host times are scaled to the reference host (HostScale).
func Metrics(r Run) map[string]float64 {
	m := r.Manifest
	ev := float64(m.Events)
	k := HostScale(r.ProbeNS)
	return map[string]float64{
		"wall_s":           k * float64(r.WallNS) / 1e9,
		"setup_s":          k * SetupSeconds(r.WallNS, m.Wall),
		"events_per_s":     EventsPerSecond(m.Events, m.Wall) / k,
		"cpu_s":            k * float64(r.CPUNS) / 1e9,
		"allocs_per_event": float64(r.Allocs) / ev,
		"bytes_per_event":  float64(r.AllocBytes) / ev,
		"peak_rss_mb":      float64(r.PeakRSSBytes) / (1 << 20),
		"complete_pct":     m.Quality.MeanCompletePct,
		"viewable_20s_pct": m.Quality.Viewable20sPct,
	}
}

// Units gives the unit of every end-to-end metric.
var Units = map[string]string{
	"wall_s":           "s",
	"setup_s":          "s",
	"events_per_s":     "1/s",
	"cpu_s":            "s",
	"allocs_per_event": "count",
	"bytes_per_event":  "B",
	"peak_rss_mb":      "MiB",
	"complete_pct":     "%",
	"viewable_20s_pct": "%",
}

// CheckRun applies the per-run output checks that do not need a second
// run: the run returned without error, executed events, and conserved
// messages. A run that fails any check has its timings dropped.
func CheckRun(r Run) error {
	if r.Err != "" {
		return fmt.Errorf("run failed: %s", r.Err)
	}
	if r.Manifest.Events == 0 {
		return fmt.Errorf("run executed no events")
	}
	return CheckConservation(r.Manifest)
}

// CheckConservation verifies that every message counted sent was
// received, lost at random, dropped at a dead endpoint, or is still in
// flight: 0 ≤ sent − received − random − dead ≤ events pending at the
// horizon. Congestion drops are never counted sent.
func CheckConservation(m gossipstream.RunManifest) error {
	t := m.Traffic
	var sent, recv uint64
	for k := range t.SentMsgs {
		sent += t.SentMsgs[k]
		recv += t.RecvMsgs[k]
	}
	var pending uint64
	for _, l := range m.ShardLoads {
		if l.Pending < 0 {
			return fmt.Errorf("shard %d reports %d pending events", l.Shard, l.Pending)
		}
		pending += uint64(l.Pending)
	}
	accounted := recv + t.RandomDrops + t.DeadDrops
	if accounted > sent {
		return fmt.Errorf("conservation: received %d + random %d + dead %d exceeds sent %d",
			recv, t.RandomDrops, t.DeadDrops, sent)
	}
	if inFlight := sent - accounted; inFlight > pending {
		return fmt.Errorf("conservation: %d messages unaccounted for, but only %d events pending", inFlight, pending)
	}
	return nil
}

// deterministic returns the manifest with its one nondeterministic field,
// the wall-time split, cleared, encoded for comparison across runs.
func deterministic(m gossipstream.RunManifest) ([]byte, error) {
	m.Wall = gossipstream.WallProfile{}
	return json.Marshal(m)
}

// SameManifest reports whether two runs at one (seed, shards) produced
// the same manifest apart from wall time.
func SameManifest(a, b gossipstream.RunManifest) (bool, error) {
	ja, err := deterministic(a)
	if err != nil {
		return false, err
	}
	jb, err := deterministic(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ja, jb), nil
}

// SameOutcome reports whether a traced run's manifest matches the
// untraced run's in everything the trace reproduces: all but the tool
// name, the wall-time split and the final overlay's in-degree.
func SameOutcome(traced, untraced gossipstream.RunManifest) (bool, error) {
	for _, m := range []*gossipstream.RunManifest{&traced, &untraced} {
		m.Tool = ""
		m.ViewInDegree = gossipstream.HistSummary{}
	}
	return SameManifest(traced, untraced)
}

// Median returns the median of xs, which must not be empty.
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// LayerRun is what one traced worker process reports.
type LayerRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Err      string `json:"err,omitempty"`
	// WallNS is the traced run's host time, build to score.
	WallNS int64  `json:"wall_ns"`
	Events uint64 `json:"events"`
	// Samples is the number of CPU profile samples attributed.
	Samples int64 `json:"samples"`
	// Metrics are the per-layer metrics the traced run measures itself.
	Metrics map[string]float64 `json:"metrics"`
	// Problems lists failed trace self-checks.
	Problems []string `json:"problems,omitempty"`
	// Manifest is the traced run's result scored as the untraced run's
	// is; it lacks only the final overlay's in-degree.
	Manifest gossipstream.RunManifest `json:"manifest"`
}
