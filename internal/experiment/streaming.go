package experiment

import (
	"math"
	"time"

	"gossipstream/internal/core"
	"gossipstream/internal/megasim"
	"gossipstream/internal/metrics"
	"gossipstream/internal/stream"
	"gossipstream/internal/telemetry"
)

// streamFold accumulates the streaming scoring state of one run.
// A node is folded exactly once, at the moment its lifetime closes —
// its departure barrier, or run end for survivors — when its receiver
// can no longer change: a crashed node stops sending, and everything
// addressed to it dead-drops, so the fold at crash time reads the same
// window lags a batch run would read from the retained receiver at the
// end. Accumulators go straight into the QualitySets (no per-node state
// survives the fold, so memory is O(1) per closed lifetime even when
// arena slots — and therefore node ids — are recycled under churn), in
// lifetime-close order: departures in crash order, then survivors in
// slot order. collectBatch materializes Result.Nodes in exactly that
// order, which is what keeps the two modes' float sums bit-identical.
type streamFold struct {
	layout     stream.Layout
	endSeconds float64
	grace      time.Duration

	survivors   telemetry.QualitySet
	present     telemetry.QualitySet
	riders      telemetry.QualitySet
	cooperators telemetry.QualitySet
	upload      telemetry.Hist
}

func newStreamFold(cfg Config, end time.Duration) *streamFold {
	return &streamFold{
		layout:     cfg.Layout,
		endSeconds: end.Seconds(),
		grace:      cfg.BootstrapGrace(),
	}
}

// fold closes one node's lifetime. The window loops mirror
// metrics.Evaluate and Result.LifetimeQualities expression for
// expression, replacing the retained lag slices with flat accumulators.
func (f *streamFold) fold(joinedAt, leftAt time.Duration, survived, rider bool, p *core.Peer, stats megasim.Stats) {
	recv := p.Receiver()
	if survived {
		// Full-stream accumulator: only survivors are scored on it
		// (SurvivorQualities), so departed nodes skip the pass.
		var full telemetry.LagAccum
		for w := 0; w < f.layout.Windows; w++ {
			lag, ok := recv.Lag(w)
			if !ok {
				lag = telemetry.NeverCompleted
			}
			full.Observe(lag)
		}
		f.survivors.Add(full)
	}
	// Lifetime-masked accumulator: Result.LifetimeQualities' window
	// eligibility, verbatim. Folded for every run shape — Present*
	// queries are valid on burst runs too.
	lastEnd := leftAt
	if !survived {
		lastEnd -= f.grace
	}
	var m telemetry.LagAccum
	for w := 0; w < f.layout.Windows; w++ {
		start := time.Duration(w*f.layout.DataPerWindow) * f.layout.PacketTime()
		end := f.layout.WindowPublishTime(w)
		if joinedAt > 0 && start < joinedAt+f.grace {
			continue
		}
		if end > lastEnd {
			continue
		}
		lag, ok := recv.Lag(w)
		if !ok {
			lag = telemetry.NeverCompleted
		}
		m.Observe(lag)
	}
	f.present.Add(m)
	// The same lifetime-masked accumulator, split by service class.
	// Riders stays empty when no free-riders were configured.
	if rider {
		f.riders.Add(m)
	} else {
		f.cooperators.Add(m)
	}
	// NodeResult.UploadKbps' expression; sent bytes are frozen from the
	// crash on, so folding early loses nothing.
	f.upload.Observe(int64(math.Round(float64(stats.TotalSentBytes()) * 8 / f.endSeconds / 1000)))
}

// hasChurnProcess mirrors the figure generators' population switch.
func (r *Result) hasChurnProcess() bool {
	p := r.Config.ChurnProcess
	return p != nil && !p.IsZero()
}

// scoredSet returns the streaming population the figures score: the
// lifetime-masked set under a churn process, survivors otherwise.
func (s *StreamingResult) scoredSet(churned bool) *telemetry.QualitySet {
	if churned {
		return &s.Present
	}
	return &s.Survivors
}

// ScoredViewablePct returns the percentage of scored nodes viewable at
// lag under maxJitter — the figure generators' y-axis — dispatching to
// the streaming accumulators or the batch qualities, whichever the run
// produced. lag must be one of telemetry.LagProbes in streaming mode.
func (r *Result) ScoredViewablePct(lag time.Duration, maxJitter float64) float64 {
	if s := r.Streaming; s != nil {
		return s.scoredSet(r.hasChurnProcess()).PercentViewable(lag, maxJitter)
	}
	return metrics.PercentViewable(r.scoredQualities(), lag, maxJitter)
}

// ScoredMeanCompletePct returns the mean complete-window percentage of
// the scored population at lag.
func (r *Result) ScoredMeanCompletePct(lag time.Duration) float64 {
	if s := r.Streaming; s != nil {
		return s.scoredSet(r.hasChurnProcess()).MeanCompleteFraction(lag)
	}
	return metrics.MeanCompleteFraction(r.scoredQualities(), lag)
}

// ScoredLagCDFAt returns the percentage of scored nodes whose critical
// lag under maxJitter is at most probe — one Figure 2 point.
func (r *Result) ScoredLagCDFAt(probe time.Duration, maxJitter float64) float64 {
	if s := r.Streaming; s != nil {
		return s.scoredSet(r.hasChurnProcess()).LagCDFAt(probe, maxJitter)
	}
	return metrics.LagCDF(r.scoredQualities(), []time.Duration{probe}, maxJitter)[0]
}

func (r *Result) scoredQualities() []metrics.Quality {
	if r.hasChurnProcess() {
		return r.LifetimeQualities(r.Config.BootstrapGrace())
	}
	return r.SurvivorQualities()
}

// SurvivorViewablePct scores only the nodes alive at run end, whatever
// the churn shape — the population cmd/gossipsim's headline metrics use.
func (r *Result) SurvivorViewablePct(lag time.Duration, maxJitter float64) float64 {
	if s := r.Streaming; s != nil {
		return s.Survivors.PercentViewable(lag, maxJitter)
	}
	return metrics.PercentViewable(r.SurvivorQualities(), lag, maxJitter)
}

// SurvivorMeanCompletePct returns the survivors' mean complete-window
// percentage at lag.
func (r *Result) SurvivorMeanCompletePct(lag time.Duration) float64 {
	if s := r.Streaming; s != nil {
		return s.Survivors.MeanCompleteFraction(lag)
	}
	return metrics.MeanCompleteFraction(r.SurvivorQualities(), lag)
}

// PresentMeanCompletePct returns the lifetime-masked population's mean
// complete-window percentage at lag under the standard bootstrap grace —
// the sustained-churn quality report.
func (r *Result) PresentMeanCompletePct(lag time.Duration) float64 {
	if s := r.Streaming; s != nil {
		return s.Present.MeanCompleteFraction(lag)
	}
	return metrics.MeanCompleteFraction(r.LifetimeQualities(r.Config.BootstrapGrace()), lag)
}

// NodeCount returns the number of non-source nodes ever present.
func (r *Result) NodeCount() int {
	if s := r.Streaming; s != nil {
		return s.Nodes
	}
	return len(r.Nodes)
}

// SurvivorCount returns the number of non-source nodes alive at run end.
func (r *Result) SurvivorCount() int {
	if s := r.Streaming; s != nil {
		return s.Nodes - s.Departed
	}
	n := 0
	for i := range r.Nodes {
		if r.Nodes[i].Survived {
			n++
		}
	}
	return n
}

// JoinedCount returns how many nodes were admitted at runtime.
func (r *Result) JoinedCount() int {
	if s := r.Streaming; s != nil {
		return s.Joined
	}
	n := 0
	for i := range r.Nodes {
		if r.Nodes[i].JoinedAt > 0 {
			n++
		}
	}
	return n
}

// DepartedCount returns how many nodes crashed or departed.
func (r *Result) DepartedCount() int {
	if s := r.Streaming; s != nil {
		return s.Departed
	}
	n := 0
	for i := range r.Nodes {
		if !r.Nodes[i].Survived {
			n++
		}
	}
	return n
}

// PresentCount returns the size of the lifetime-masked scoring
// population (nodes with at least one eligible window).
func (r *Result) PresentCount() int {
	if s := r.Streaming; s != nil {
		return s.Present.Len()
	}
	return len(r.LifetimeQualities(r.Config.BootstrapGrace()))
}

// classSet returns the streaming accumulator of one service class.
func (s *StreamingResult) classSet(rider bool) *telemetry.QualitySet {
	if rider {
		return &s.Riders
	}
	return &s.Cooperators
}

// classKeep returns the batch-mode predicate of one service class.
func classKeep(rider bool) func(*NodeResult) bool {
	return func(n *NodeResult) bool { return n.FreeRider == rider }
}

// ClassMeanCompletePct returns the mean complete-window percentage at lag
// of one service class (free-riders or cooperators), scored over the
// lifetime-masked window set under the standard bootstrap grace — the
// service-asymmetry report: how much quality the riders extract, and what
// their presence costs the nodes actually serving. Zero when the class is
// empty.
func (r *Result) ClassMeanCompletePct(rider bool, lag time.Duration) float64 {
	if s := r.Streaming; s != nil {
		return s.classSet(rider).MeanCompleteFraction(lag)
	}
	return metrics.MeanCompleteFraction(r.lifetimeQualitiesWhere(r.Config.BootstrapGrace(), classKeep(rider)), lag)
}

// ClassCount returns the number of scored nodes of one service class
// (nodes with at least one eligible window).
func (r *Result) ClassCount(rider bool) int {
	if s := r.Streaming; s != nil {
		return s.classSet(rider).Len()
	}
	return len(r.lifetimeQualitiesWhere(r.Config.BootstrapGrace(), classKeep(rider)))
}

// UploadSummary digests the per-node mean upload rates (kbps): exact in
// streaming mode (the histogram is folded from every node), derived from
// Nodes otherwise.
func (r *Result) UploadSummary() telemetry.HistSummary {
	if s := r.Streaming; s != nil {
		return s.Upload.Summary()
	}
	var h telemetry.Hist
	for i := range r.Nodes {
		h.Observe(int64(math.Round(r.Nodes[i].UploadKbps)))
	}
	return h.Summary()
}
