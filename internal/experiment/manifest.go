package experiment

import (
	"time"

	"gossipstream/internal/megasim"
	"gossipstream/internal/metrics"
	"gossipstream/internal/telemetry"
)

// Manifest is the structured description of one run that -telemetry
// emits: the exact configuration, cost and load of the execution, and
// the derived quality columns — enough to archive alongside a figure and
// later answer "what produced this number". Everything in it except Wall
// is deterministic for a fixed (Seed, Shards).
type Manifest struct {
	// Tool names the emitting binary (e.g. "gossipsim").
	Tool string `json:"tool"`
	// Config is the run's full configuration (Telemetry hooks excluded).
	Config Config `json:"config"`
	// DurationSeconds is the simulated time executed, drain included.
	DurationSeconds float64 `json:"duration_seconds"`
	// Events is the number of simulator events executed.
	Events uint64 `json:"events"`

	Nodes   ManifestNodes   `json:"nodes"`
	Quality ManifestQuality `json:"quality"`

	// Traffic aggregates every node's network counters.
	Traffic megasim.Stats `json:"traffic"`
	// UploadKbps digests the distribution of per-node mean upload rates.
	UploadKbps telemetry.HistSummary `json:"upload_kbps"`
	// ViewInDegree digests the final overlay's in-degree distribution
	// (zero Count except on Cyclon runs).
	ViewInDegree telemetry.HistSummary `json:"view_indegree"`

	// Wall is the supervisor wall-time split; zero without a telemetry
	// clock. The one nondeterministic field.
	Wall telemetry.WallProfile `json:"wall"`
	// ShardLoads is the per-shard load table.
	ShardLoads []telemetry.ShardLoad `json:"shard_loads,omitempty"`
	// Snapshots are the periodic progress snapshots, if taken.
	Snapshots []telemetry.Snapshot `json:"snapshots,omitempty"`
}

// ManifestNodes are the population counts of a run.
type ManifestNodes struct {
	// Total counts non-source nodes ever present; Joined the
	// runtime-admitted subset, Departed the crashed subset, Survivors
	// the nodes alive at run end.
	Total     int `json:"total"`
	Survivors int `json:"survivors"`
	Joined    int `json:"joined"`
	Departed  int `json:"departed"`
	// Present is the size of the lifetime-masked scoring population.
	Present int `json:"present"`
}

// ManifestQuality is the scored-quality block: the Figure 1/3/5 columns
// at the standard jitter bar, plus Figure 2's lag CDF.
type ManifestQuality struct {
	JitterThreshold float64 `json:"jitter_threshold"`
	// Viewable*Pct are the percentage of scored nodes within the jitter
	// bar at the figure lags.
	ViewableOfflinePct float64 `json:"viewable_offline_pct"`
	Viewable20sPct     float64 `json:"viewable_20s_pct"`
	Viewable10sPct     float64 `json:"viewable_10s_pct"`
	// MeanCompletePct is the mean complete-window percentage (offline).
	MeanCompletePct float64 `json:"mean_complete_pct"`
	// LagCDF is Figure 2's curve over the finite probe lags.
	LagCDF []ManifestLagPoint `json:"lag_cdf"`
}

// ManifestLagPoint is one point of the lag CDF.
type ManifestLagPoint struct {
	LagSeconds float64 `json:"lag_seconds"`
	Pct        float64 `json:"pct"`
}

// Manifest assembles the run manifest. It works identically for batch
// and streaming results — every number routes through the Scored*
// dispatch — so archiving a manifest costs nothing extra in either mode.
func (r *Result) Manifest(tool string) Manifest {
	const thr = metrics.DefaultJitterThreshold
	q := ManifestQuality{
		JitterThreshold:    thr,
		ViewableOfflinePct: r.ScoredViewablePct(metrics.InfiniteLag, thr),
		Viewable20sPct:     r.ScoredViewablePct(20*time.Second, thr),
		Viewable10sPct:     r.ScoredViewablePct(10*time.Second, thr),
		MeanCompletePct:    r.ScoredMeanCompletePct(metrics.InfiniteLag),
	}
	for _, probe := range telemetry.LagProbes {
		if probe == telemetry.InfiniteLag {
			continue
		}
		q.LagCDF = append(q.LagCDF, ManifestLagPoint{
			LagSeconds: probe.Seconds(),
			Pct:        r.ScoredLagCDFAt(probe, thr),
		})
	}
	return Manifest{
		Tool:            tool,
		Config:          r.Config,
		DurationSeconds: r.Duration.Seconds(),
		Events:          r.Events,
		Nodes: ManifestNodes{
			Total:     r.NodeCount(),
			Survivors: r.SurvivorCount(),
			Joined:    r.JoinedCount(),
			Departed:  r.DepartedCount(),
			Present:   r.PresentCount(),
		},
		Quality:      q,
		Traffic:      r.TotalTraffic,
		UploadKbps:   r.UploadSummary(),
		ViewInDegree: r.ViewInDegree.Summary(),
		Wall:         r.Wall,
		ShardLoads:   r.ShardLoads,
		Snapshots:    r.Snapshots,
	}
}
