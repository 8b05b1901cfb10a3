package trace

import (
	"fmt"
	"math/rand"
	"time"

	"gossipstream/internal/churn"
	"gossipstream/internal/core"
	"gossipstream/internal/experiment"
	"gossipstream/internal/megasim"
	"gossipstream/internal/member"
	"gossipstream/internal/metrics"
	"gossipstream/internal/pss"
	"gossipstream/internal/stream"
	"gossipstream/internal/telemetry/teleclock"
	"gossipstream/internal/wire"
	"gossipstream/internal/xrand"
)

// deployment mirrors internal/experiment's sharded deployment for the
// features the benchmark's workloads use: the same constructors, seeds,
// node order and churn barriers, so the traced run executes the same
// events as the untraced one.
type deployment struct {
	cfg    experiment.Config
	t      *Tracer
	eng    *megasim.Engine
	pssCfg pss.Config
	end    time.Duration
	peers  []*core.Peer
	states []*pss.State // nil without Cyclon membership
	ids    []wire.NodeID
	joined []time.Duration // admission barrier time; 0 for setup nodes
	// departed holds crashed nodes' results, captured at their barriers
	// in crash order.
	departed []experiment.NodeResult
	err      error
}

// supported rejects configurations using features the mirror leaves out,
// so a workload change cannot silently trace a different deployment.
func supported(cfg experiment.Config) error {
	switch {
	case cfg.Shards < 1:
		return fmt.Errorf("trace: Shards = %d, the trace mirrors the sharded engine only", cfg.Shards)
	case len(cfg.Churn) > 0, cfg.FreeRiders != 0, cfg.StreamingMetrics:
		return fmt.Errorf("trace: churn bursts, free-riders and streaming scoring are not mirrored")
	case cfg.ChurnProcess != nil && cfg.ChurnProcess.GracefulLeaves:
		return fmt.Errorf("trace: graceful leaves are not mirrored")
	}
	return nil
}

// build constructs the deployment: engine, stream source, every setup
// node, and the churn barriers.
func build(cfg experiment.Config, t *Tracer) (*deployment, error) {
	if cfg.Shards > cfg.Nodes {
		cfg.Shards = cfg.Nodes
	}
	eng, err := megasim.New(megasim.Config{Net: cfg.Net, Shards: cfg.Shards, Seed: cfg.Seed, Queue: cfg.Queue})
	if err != nil {
		return nil, err
	}
	eng.SetWallClock(teleclock.Clock())
	src, err := stream.NewSource(cfg.Layout, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	d := &deployment{
		cfg:    cfg,
		t:      t,
		eng:    eng,
		pssCfg: cfg.PSS,
		end:    cfg.Layout.Duration() + cfg.Drain,
		peers:  make([]*core.Peer, cfg.Nodes),
		ids:    make([]wire.NodeID, cfg.Nodes),
		joined: make([]time.Duration, cfg.Nodes),
	}
	if d.pssCfg == (pss.Config{}) {
		d.pssCfg = pss.DefaultConfig()
	}
	if cfg.Membership == experiment.MembershipCyclon {
		d.states = make([]*pss.State, cfg.Nodes)
	}
	bootRng := xrand.New(cfg.Seed + 4049)
	for i := 0; i < cfg.Nodes; i++ {
		id := wire.NodeID(i)
		var boot []wire.NodeID
		if d.states != nil {
			boot = bootstrapIDs(id, cfg.Nodes, d.pssCfg.ShuffleLen, bootRng)
		}
		var src0 *stream.Source
		if i == 0 {
			src0 = src
		}
		p, st, err := d.buildNode(id, boot, src0)
		if err != nil {
			return nil, err
		}
		d.peers[i], d.ids[i] = p, id
		if d.states != nil {
			d.states[i] = st
		}
	}
	for _, p := range d.peers {
		p.Start()
	}
	if p := cfg.ChurnProcess; p != nil && !p.IsZero() {
		procRng := xrand.New(cfg.Seed + 8161)
		for _, tev := range p.Timeline(cfg.Seed, cfg.Layout.Duration()) {
			tev := tev
			switch tev.Op {
			case churn.OpJoin:
				eng.AtBarrier(tev.At, func() { d.barrier(spAdmit, func() { d.admit(tev.At, procRng) }) })
			case churn.OpLeave:
				eng.AtBarrier(tev.At, func() { d.barrier(spDepart, func() { d.leave(tev.At, procRng) }) })
			default:
				return nil, fmt.Errorf("trace: churn op %v is not mirrored", tev.Op)
			}
		}
	}
	return d, nil
}

// barrier runs a churn callback as a supervisor span; the shards are
// quiescent, so node code it calls is traced on the supervisor lane.
func (d *deployment) barrier(kind span, fn func()) {
	d.t.super = true
	l := d.t.supervisor()
	d.t.enter(l, kind)
	fn()
	d.t.exit(l)
	d.t.super = false
}

// buildNode mirrors the experiment's node construction, with the
// engine-facing boundaries wrapped.
func (d *deployment) buildNode(id wire.NodeID, boot []wire.NodeID, src *stream.Source) (*core.Peer, *pss.State, error) {
	cfg := d.cfg
	shard := megasim.Slot(id) % d.eng.Shards()
	rng := megasim.NewRand(cfg.Seed<<20 + int64(id))
	nodeEnv := &env{t: d.t, shard: shard, inner: d.eng.NodeEnv(id, rng)}
	var smp member.Sampler
	var st *pss.State
	var dyn *dynSampler
	if boot != nil {
		var err error
		st, err = pss.NewState(id, d.pssCfg, cfg.Seed<<20+0x707373+int64(id), boot)
		if err != nil {
			return nil, nil, err
		}
		dyn = &dynSampler{sampler: sampler{t: d.t, shard: shard, inner: st}, dyn: st}
		smp = dyn
	} else {
		smp = &sampler{t: d.t, shard: shard, inner: member.NewSparseView(id, cfg.Nodes, rng)}
	}
	var p *core.Peer
	var err error
	if src != nil {
		p, err = core.NewSourcePeer(nodeEnv, cfg.Protocol, smp, src)
	} else {
		p, err = core.NewPeer(nodeEnv, cfg.Protocol, smp, cfg.Layout)
	}
	if err != nil {
		return nil, nil, err
	}
	if got := d.eng.AddNode(&handler{t: d.t, shard: shard, p: p}, nodeCap(cfg, megasim.Slot(id)), cfg.QueueBytes); got != id {
		return nil, nil, fmt.Errorf("trace: node id drift: got %d, want %d", got, id)
	}
	if dyn != nil {
		d.eng.AttachSampler(id, dyn, d.pssCfg.Period)
	}
	return p, st, nil
}

func nodeCap(cfg experiment.Config, slot int) int64 {
	switch {
	case slot == 0:
		return cfg.SourceCapBps
	case len(cfg.UploadCapMix) > 0:
		return cfg.UploadCapMix[(slot-1)%len(cfg.UploadCapMix)]
	default:
		return cfg.UploadCapBps
	}
}

// admit mirrors runtime admission: a new node on the next arena handle,
// its Cyclon view bootstrapped from live nodes.
func (d *deployment) admit(at time.Duration, rng *rand.Rand) {
	if d.err != nil {
		return
	}
	id := d.eng.PeekNextID()
	boot := d.liveBootstrapIDs(id, d.pssCfg.ShuffleLen, rng)
	p, st, err := d.buildNode(id, boot, nil)
	if err != nil {
		d.err = fmt.Errorf("trace: admitting node %d: %w", id, err)
		return
	}
	slot := megasim.Slot(id)
	if slot == len(d.peers) {
		d.peers = append(d.peers, nil)
		d.ids = append(d.ids, 0)
		d.joined = append(d.joined, 0)
		d.states = append(d.states, nil)
	}
	d.peers[slot], d.ids[slot], d.joined[slot], d.states[slot] = p, id, at, st
	p.Start()
}

// leave mirrors a crash departure of one random live non-source node,
// including capturing the victim's result at its barrier.
func (d *deployment) leave(at time.Duration, rng *rand.Rand) {
	eligible := d.aliveVictims()
	if len(eligible) == 0 {
		return
	}
	victim := eligible[rng.Intn(len(eligible))]
	slot := megasim.Slot(victim)
	d.eng.Crash(victim)
	d.peers[slot].Stop()
	if d.states != nil {
		d.states[slot].Stop()
		d.states[slot] = nil
	}
	d.departed = append(d.departed, d.nodeResult(victim, slot, at, false))
	d.peers[slot] = nil
	d.eng.Release(victim)
}

// nodeResult mirrors the experiment's capture of one node's outcome.
func (d *deployment) nodeResult(id wire.NodeID, slot int, leftAt time.Duration, survived bool) experiment.NodeResult {
	stats := d.eng.NodeStats(id)
	return experiment.NodeResult{
		ID:            id,
		Survived:      survived,
		JoinedAt:      d.joined[slot],
		LeftAt:        leftAt,
		Quality:       metrics.Evaluate(d.peers[slot].Receiver(), d.cfg.Layout),
		UploadKbps:    float64(stats.TotalSentBytes()) * 8 / d.end.Seconds() / 1000,
		BaseLatencyMS: float64(d.eng.BaseLatency(id)) / float64(time.Millisecond),
		Counters:      d.peers[slot].Counters(),
		Stats:         stats,
	}
}

func (d *deployment) aliveVictims() []wire.NodeID {
	var eligible []wire.NodeID
	for slot := 1; slot < len(d.peers); slot++ {
		if d.peers[slot] != nil && d.eng.Alive(d.ids[slot]) {
			eligible = append(eligible, d.ids[slot])
		}
	}
	return eligible
}

func (d *deployment) liveBootstrapIDs(self wire.NodeID, k int, rng *rand.Rand) []wire.NodeID {
	alive := make([]wire.NodeID, 0, len(d.peers))
	for slot := 0; slot < len(d.peers); slot++ {
		if d.peers[slot] == nil {
			continue
		}
		if id := d.ids[slot]; id != self && d.eng.Alive(id) {
			alive = append(alive, id)
		}
	}
	if k > len(alive) {
		k = len(alive)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(alive)-i)
		alive[i], alive[j] = alive[j], alive[i]
	}
	return alive[:k]
}

// bootstrapIDs mirrors the experiment's setup-time bootstrap draw: k
// distinct random ids other than self, in ascending order.
func bootstrapIDs(self wire.NodeID, n, k int, rng *rand.Rand) []wire.NodeID {
	seen := make(map[wire.NodeID]bool, k)
	var out []wire.NodeID
	for len(seen) < k && len(seen) < n-1 {
		id := wire.NodeID(rng.Intn(n))
		if id != self && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// score assembles the run's result — departed nodes in crash order, then
// survivors in slot order, as the experiment does — and scores it with
// the experiment's own Result.Manifest.
func (d *deployment) score() (experiment.Manifest, core.Counters) {
	res := &experiment.Result{
		Config:         d.cfg,
		Duration:       d.end,
		SourceCounters: d.peers[0].Counters(),
		SourceStats:    d.eng.NodeStats(0),
		Events:         d.eng.Fired(),
		Nodes:          append([]experiment.NodeResult(nil), d.departed...),
		ShardLoads:     d.eng.ShardLoads(),
		TotalTraffic:   d.eng.TotalStats(),
		Wall:           d.eng.WallProfile(),
	}
	for slot := 1; slot < len(d.peers); slot++ {
		if d.peers[slot] != nil {
			res.Nodes = append(res.Nodes, d.nodeResult(d.ids[slot], slot, d.end, true))
		}
	}
	counters := res.SourceCounters
	for _, n := range res.Nodes {
		addCounters(&counters, n.Counters)
	}
	return res.Manifest("perfbench-trace"), counters
}

func addCounters(dst *core.Counters, c core.Counters) {
	dst.Rounds += c.Rounds
	dst.ProposesSent += c.ProposesSent
	dst.RequestsSent += c.RequestsSent
	dst.ServesSent += c.ServesSent
	dst.PacketsServed += c.PacketsServed
	dst.Retransmissions += c.Retransmissions
	dst.FeedMesSent += c.FeedMesSent
	dst.DuplicateServes += c.DuplicateServes
}
