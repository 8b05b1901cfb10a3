// Package workload defines the benchmark's simulated deployments. It uses
// only the root gossipstream facade, so the untraced runner that gates
// changes keeps building whatever happens to the internal packages.
package workload

import (
	"fmt"
	"time"

	"gossipstream"
)

// DefaultSeed is the workload seed the README's numbers were taken at;
// ValidationSeed is the seed to confirm a claim on, unused while tuning.
const (
	DefaultSeed    int64 = 1
	ValidationSeed int64 = 7
)

// Workload is one named deployment of the benchmark.
type Workload struct {
	Name string
	// Config returns the deployment at the given seed.
	Config func(seed int64) gossipstream.ExperimentConfig
}

// All lists the workloads in the order the README presents them.
var All = []Workload{
	// The paper's deployment: per-node state sized by its long stream
	// dominates memory; the queue is small, uplinks are congested and
	// there is no Cyclon traffic.
	{
		Name: "paper-230",
		Config: func(seed int64) gossipstream.ExperimentConfig {
			cfg := gossipstream.DefaultExperiment()
			cfg.Shards = 1
			cfg.Seed = seed
			return cfg
		},
	},
	// The Cyclon protocol hot path over a deep event queue, and the only
	// workload with barriers: conservative windows, cross-shard merges,
	// runtime admission and departures beside the steady gossip.
	{
		Name: "churn-3k",
		Config: func(seed int64) gossipstream.ExperimentConfig {
			cfg := gossipstream.ScaledExperiment(3000, 2, 20*time.Second)
			cfg.Membership = gossipstream.MembershipCyclon
			n := float64(cfg.Nodes)
			cfg.ChurnProcess = gossipstream.SustainedChurn(0.01*n, 0.01*n)
			cfg.Seed = seed
			return cfg
		},
	},
}

// Lookup returns the workload with the given name.
func Lookup(name string) (Workload, error) {
	for _, w := range All {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(All))
	for i, w := range All {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
