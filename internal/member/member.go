// Package member implements gossip partner selection — Algorithm 1's
// selectNodes — together with the two proactiveness knobs of the paper's §3:
//
//   - X, the view refresh rate: the output of selectNodes changes every X
//     calls. X = 1 re-randomizes partners every gossip round (the classic
//     theoretical model); X = Never keeps the initial random partners
//     forever, degenerating into a static mesh.
//   - Y, the feed-me rate: every Y rounds a node asks f random nodes to
//     insert it into their partner sets; each recipient replaces one random
//     current partner with the requester.
//
// Selection is uniform over the substrate's membership view. The paper
// assumes global knowledge of the node set and no repair — SparseView
// models exactly that: crashed nodes are never removed. Deployed
// systems instead run a membership gossip layer with partial views; the
// DynamicSampler interface is the engine-facing contract such substrates
// (internal/pss) satisfy, letting every simulation engine drive static and
// live views through one abstraction.
package member

import (
	"fmt"
	"math/rand"

	"gossipstream/internal/wire"
)

// Never disables a rate knob: a refresh rate of Never means partners are
// drawn once and kept forever (the paper's X = ∞); a feed rate of Never
// disables feed-me messages (Y = ∞).
const Never = 0

// Sampler provides uniform random node samples. It abstracts the membership
// substrate: SparseView samples from global knowledge (the paper's model),
// while partial-view protocols (internal/pss) can stand in for it.
type Sampler interface {
	// Sample returns up to k distinct random node ids, never including the
	// local node.
	Sample(k int) []wire.NodeID
}

// Emit is one outbound membership message produced by a dynamic sampler.
// Samplers return emissions instead of sending so their records stay
// engine-agnostic: no captured environment, no timers, no closures — the
// driving engine owns scheduling and transport.
type Emit struct {
	To  wire.NodeID
	Msg wire.Message
}

// DynamicSampler is the engine-facing contract every membership substrate
// satisfies, static or live. A static sampler's view never changes, so its
// dynamics are no-ops (embed Static); a live substrate (Cyclon partial
// views, internal/pss) evolves its view through the protocol traffic the
// engine routes through these methods:
//
//   - Tick advances one protocol round (the engine calls it on the
//     substrate's period) and returns at most one message to transmit.
//   - Handle consumes an inbound membership message and returns at most
//     one reply. Messages of kinds the substrate does not speak are
//     ignored.
//
// Both run on the owning node's scheduler thread; implementations need no
// internal locking. The engine transmits emissions over the same lossy,
// latency-modelled links as protocol traffic, so membership maintenance
// pays for its bandwidth like everything else.
type DynamicSampler interface {
	Sampler
	Tick() (Emit, bool)
	Handle(from wire.NodeID, msg wire.Message) (Emit, bool)
}

// Static provides no-op dynamics. Embed it to lift a fixed-membership
// Sampler into a DynamicSampler: such a view never emits traffic and
// ignores all inbound membership messages.
type Static struct{}

// Tick implements DynamicSampler; a static view never emits.
func (Static) Tick() (Emit, bool) { return Emit{}, false }

// Handle implements DynamicSampler; a static view ignores all traffic.
func (Static) Handle(wire.NodeID, wire.Message) (Emit, bool) { return Emit{}, false }

// SparseView is a Sampler over static global membership [0, n) minus self
// that stores O(1) state instead of an O(n) permutation array — at 100k+
// nodes a per-node array would dominate all memory. Samples are
// drawn by rejection, which is cheap while k ≪ n; for tiny systems
// (k close to n) it degrades gracefully by enumerating.
type SparseView struct {
	Static
	self wire.NodeID
	n    int
	rng  *rand.Rand
}

// NewSparseView returns a constant-memory full-membership sampler for a
// system of n nodes.
func NewSparseView(self wire.NodeID, n int, rng *rand.Rand) *SparseView {
	if n <= 0 {
		panic(fmt.Sprintf("member: system size %d", n))
	}
	return &SparseView{self: self, n: n, rng: rng}
}

// Sample implements Sampler.
func (v *SparseView) Sample(k int) []wire.NodeID {
	if k > v.n-1 {
		k = v.n - 1
	}
	if k <= 0 {
		return nil
	}
	if k*2 >= v.n {
		// Dense request: partial Fisher–Yates over an explicit candidate
		// list (rejection would thrash once most ids are taken).
		all := make([]wire.NodeID, 0, v.n-1)
		for i := 0; i < v.n; i++ {
			if wire.NodeID(i) != v.self {
				all = append(all, wire.NodeID(i))
			}
		}
		for i := 0; i < k; i++ {
			j := i + v.rng.Intn(len(all)-i)
			all[i], all[j] = all[j], all[i]
		}
		return all[:k]
	}
	out := make([]wire.NodeID, 0, k)
draw:
	for len(out) < k {
		id := wire.NodeID(v.rng.Intn(v.n))
		if id == v.self {
			continue
		}
		for _, got := range out {
			if got == id {
				continue draw
			}
		}
		out = append(out, id)
	}
	return out
}

// Compile-time check: the static view satisfies the engine-facing
// dynamic-view contract through its embedded no-op dynamics.
var _ DynamicSampler = (*SparseView)(nil)

// View yields the communication partners for each gossip round, applying
// the refresh-rate knob X and feed-me insertions.
type View struct {
	sampler  Sampler
	fanout   int
	refresh  int // X; Never = keep forever
	calls    int
	partners []wire.NodeID
	rng      *rand.Rand
}

// NewView returns a View selecting fanout partners through sampler,
// re-drawing them every refreshEvery calls (X). refreshEvery = Never keeps
// the first draw forever.
func NewView(sampler Sampler, fanout, refreshEvery int, rng *rand.Rand) *View {
	if fanout <= 0 {
		panic(fmt.Sprintf("member: fanout %d", fanout))
	}
	if refreshEvery < 0 {
		panic(fmt.Sprintf("member: refresh rate %d", refreshEvery))
	}
	return &View{sampler: sampler, fanout: fanout, refresh: refreshEvery, rng: rng}
}

// Partners returns this round's communication partners, advancing the
// refresh schedule by one call. The returned slice is owned by the View;
// callers must not retain it across rounds.
func (v *View) Partners() []wire.NodeID {
	needRefresh := v.partners == nil
	if v.refresh != Never && v.calls%v.refresh == 0 {
		needRefresh = true
	}
	v.calls++
	if needRefresh {
		v.partners = v.sampler.Sample(v.fanout)
	}
	return v.partners
}

// Current returns the partner set without advancing the refresh schedule
// (drawing it first if no round has run yet).
func (v *View) Current() []wire.NodeID {
	if v.partners == nil {
		v.partners = v.sampler.Sample(v.fanout)
	}
	return v.partners
}

// Insert handles a feed-me request: requester replaces one uniformly random
// current partner. If the requester is already a partner nothing changes.
// This is the receiving half of knob Y.
func (v *View) Insert(requester wire.NodeID) {
	cur := v.Current()
	if len(cur) == 0 {
		v.partners = []wire.NodeID{requester}
		return
	}
	for _, p := range cur {
		if p == requester {
			return
		}
	}
	cur[v.rng.Intn(len(cur))] = requester
}

// Calls reports how many rounds have consulted this view.
func (v *View) Calls() int { return v.calls }
