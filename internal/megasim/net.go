package megasim

import (
	"time"

	"gossipstream/internal/wire"
)

// NetConfig controls the network model: per-node base latencies,
// per-pair and per-message latency variation, and ambient loss. It is a
// deterministic stand-in for the paper's 230-node PlanetLab testbed:
//
//   - each node has an upload link shaped to a configurable cap with a
//     bounded queue (internal/shaping) — the paper's artificial bandwidth
//     limiter with throttling;
//   - per-node base latencies are heterogeneous (lognormal), so some nodes
//     are "good" (fast, win propose races) and some are "bad", reproducing
//     the heterogeneous bandwidth usage of Fig. 4;
//   - messages suffer Bernoulli loss (UDP) and drop-tail congestion loss;
//   - nodes can crash (churn): crashed nodes silently ignore traffic, and
//     nothing removes them from anyone's view, exactly as in the paper.
//
// Download links are not modeled: the paper caps upload only, the binding
// resource for gossip dissemination.
type NetConfig struct {
	// LossRate is the probability an otherwise-deliverable message is lost
	// (UDP loss). 0 disables random loss.
	LossRate float64
	// BaseLatencyMedian is the median one-way base latency of a node.
	BaseLatencyMedian time.Duration
	// BaseLatencySigma is the σ of the lognormal base-latency distribution
	// (0 makes all nodes identical).
	BaseLatencySigma float64
	// JitterFrac adds ±JitterFrac relative uniform jitter per message.
	JitterFrac float64
	// PairSpread scales each ordered pair's latency by a fixed factor in
	// [1-PairSpread, 1+PairSpread]. Wide-area paths violate the triangle
	// inequality routinely; without this, the lowest-latency node wins
	// every propose race at every receiver and melts down at high fanout.
	PairSpread float64
}

// DefaultNetConfig returns latency and loss settings calibrated to
// wide-area conditions: 40 ms median one-way latency with heavy
// heterogeneity, 0.5% ambient loss.
func DefaultNetConfig() NetConfig {
	return NetConfig{
		LossRate:          0.005,
		BaseLatencyMedian: 40 * time.Millisecond,
		BaseLatencySigma:  0.5,
		JitterFrac:        0.2,
		PairSpread:        0.4,
	}
}

// Stats counts a node's traffic. Byte counts are application-level (the
// bytes the bandwidth limiter throttles), excluding IP/UDP overhead.
type Stats struct {
	SentMsgs        [wire.KindCount]uint64 // indexed by wire.Kind
	SentBytes       [wire.KindCount]uint64
	RecvMsgs        [wire.KindCount]uint64
	RecvBytes       [wire.KindCount]uint64
	CongestionDrops uint64 // dropped at the sender's full uplink queue
	RandomDrops     uint64 // Bernoulli (UDP) losses of this node's sends
	DeadDrops       uint64 // deliveries to or from a crashed endpoint, counted at the receiver
}

// TotalSentBytes returns bytes accepted onto the uplink across all kinds.
func (s Stats) TotalSentBytes() uint64 {
	var t uint64
	for _, b := range s.SentBytes {
		t += b
	}
	return t
}

// TotalRecvBytes returns bytes delivered to the node across all kinds.
func (s Stats) TotalRecvBytes() uint64 {
	var t uint64
	for _, b := range s.RecvBytes {
		t += b
	}
	return t
}

// Drops returns the total number of messages dropped rather than
// delivered: congestion at the sender's uplink, Bernoulli (UDP) loss, and
// crashed endpoints. Nothing in the network drops silently — every lost
// message lands in exactly one of those counters.
func (s Stats) Drops() uint64 {
	return s.CongestionDrops + s.RandomDrops + s.DeadDrops
}

// Add accumulates o's counters into s, for network-wide aggregation.
func (s *Stats) Add(o Stats) {
	for k := 0; k < wire.KindCount; k++ {
		s.SentMsgs[k] += o.SentMsgs[k]
		s.SentBytes[k] += o.SentBytes[k]
		s.RecvMsgs[k] += o.RecvMsgs[k]
		s.RecvBytes[k] += o.RecvBytes[k]
	}
	s.CongestionDrops += o.CongestionDrops
	s.RandomDrops += o.RandomDrops
	s.DeadDrops += o.DeadDrops
}

// PairFactor is the deterministic per-pair latency factor: a splitmix64
// finalizer over the salted ordered pair, mapped uniformly onto
// [1-spread, 1+spread].
func PairFactor(salt uint64, a, b NodeID, spread float64) float64 {
	x := salt ^ uint64(uint32(a))<<32 ^ uint64(uint32(b))
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53) // [0,1)
	return 1 + spread*(2*u-1)
}
