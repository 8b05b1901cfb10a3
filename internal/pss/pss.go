// Package pss is a Cyclon-style peer sampling service: an optional,
// partial-view membership substrate for the gossip streaming protocol.
//
// The paper assumes global membership knowledge — selectNodes draws
// uniformly from the set of all nodes (Algorithm 1, line 26). Deployed
// systems rarely have that luxury; they run a membership gossip layer
// ([5] in the paper) whose partial views approximate uniform sampling.
// This package provides such a layer so the streaming protocol can be
// evaluated over realistic membership (the membership ablation in
// bench_test.go compares the two).
//
// Protocol (Cyclon): each node keeps a bounded view of aged node
// descriptors. Periodically it removes its oldest descriptor, sends that
// node a sample of its view plus a fresh self-descriptor, and merges the
// sample the target returns. Descriptor ages let stale entries (and
// crashed nodes) rotate out.
//
// Merging performs Cyclon's slot-for-slot swap: incoming descriptors
// first fill empty view slots, then replace descriptors the node just
// sent to its shuffle partner (the initiator remembers the ids of its
// last request's sample; the responder uses its reply's sample), and are
// otherwise dropped. Swap semantics keep the global descriptor count
// conserved, which is what gives Cyclon its near-uniform in-degree
// distribution — measured at 10k nodes the in-degree CV is ≈0.22, versus
// ≈0.50 for the keep-youngest merge this package used before.
//
// # Representation
//
// The protocol state lives in State, a compact per-node record satisfying
// member.DynamicSampler: the bounded view, an 8-byte splitmix64 random
// stream, and two counters — no captured environment, no timers, no
// closures, no wall-clock coupling. Engines own scheduling and transport:
// they call Tick on the shuffle period and route SHUFFLE traffic through
// Handle, transmitting whatever either returns. This is what lets the
// engine (internal/megasim) keep per-shard pss state in its
// node-state arena and hand cross-shard shuffles over at barriers
// deterministically.
//
// Shuffles are fire-and-forget, which is what makes barrier-time churn
// harmless: the initiator removes its shuffle target's descriptor before
// sending, so nothing is pending while the request is in flight. If the
// target crashed — even in the same barrier that scheduled the delivery —
// the request is simply lost, the initiator's view has already shed the
// descriptor, and remaining copies elsewhere age out through later
// shuffles. No reply ever wedges.
package pss

import (
	"fmt"
	"time"

	"gossipstream/internal/member"
	"gossipstream/internal/wire"
	"gossipstream/internal/xrand"
)

// Config parameterizes the sampling service.
type Config struct {
	// ViewSize bounds the partial view (classic Cyclon uses 20–50).
	ViewSize int
	// ShuffleLen is the number of descriptors exchanged per shuffle.
	ShuffleLen int
	// Period is the shuffle interval. State itself never reads it; the
	// driving engine does, to schedule Tick calls.
	Period time.Duration
}

// DefaultConfig returns a conventional Cyclon parameterization.
func DefaultConfig() Config {
	return Config{ViewSize: 20, ShuffleLen: 8, Period: time.Second}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.ViewSize <= 0:
		return fmt.Errorf("pss: ViewSize = %d, want > 0", c.ViewSize)
	case c.ShuffleLen <= 0 || c.ShuffleLen > c.ViewSize:
		return fmt.Errorf("pss: ShuffleLen = %d, want in [1, ViewSize=%d]", c.ShuffleLen, c.ViewSize)
	case c.Period <= 0:
		return fmt.Errorf("pss: Period = %v, want > 0", c.Period)
	}
	return nil
}

// maxAge saturates descriptor ages (wire.ShuffleEntry.Age is uint16).
const maxAge = 1<<16 - 1

// tombCap sizes the LEAVE tombstone set in view sizes. Four views' worth
// comfortably outlives the circulating stale copies of any descriptor
// (each view holds at most one) while keeping per-node memory O(ViewSize)
// under unbounded churn.
const tombCap = 4

// State is one node's Cyclon record in compact, engine-driven form; see
// the package comment for the contract. Not safe for concurrent use; the
// driving engine serializes calls, as with the streaming protocol state.
type State struct {
	self       wire.NodeID
	viewSize   int
	shuffleLen int
	rng        xrand.SplitMix64
	view       []wire.ShuffleEntry
	// pending holds the ids sampled into the last shuffle request — the
	// descriptors this node offered its partner, and therefore the slots
	// the partner's reply may take over (Cyclon's swap). Overwritten by
	// each Tick, consumed (and cleared) by the matching reply; shuffles
	// stay fire-and-forget — a lost reply just leaves pending to be
	// overwritten next period, and an unsolicited reply finds it empty
	// and merges into free slots only. Capacity is reused across rounds.
	pending []wire.NodeID
	// tombs holds ids whose LEAVE this node has seen: merge and insert
	// refuse to re-admit them, so stale copies still circulating in other
	// views cannot resurrect a departed descriptor here. The set is a
	// bounded FIFO (tombCap × ViewSize): a tombstone only needs to outlive
	// the stale copies of its descriptor, which age out of the overlay,
	// and under generation-tagged ids a reborn node carries a fresh id the
	// tombstone never matches.
	tombs   []wire.NodeID
	stopped bool

	shufflesSent     int
	shufflesAnswered int
}

// NewState returns a record seeded with bootstrap descriptors (age 0). At
// least one bootstrap entry is required to join the overlay; the common
// pattern seeds each node with a few random peers. All randomness (shuffle
// partner sampling, Sample) comes from a private splitmix64 stream over
// seed.
func NewState(self wire.NodeID, cfg Config, seed int64, bootstrap []wire.NodeID) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &State{
		self:       self,
		viewSize:   cfg.ViewSize,
		shuffleLen: cfg.ShuffleLen,
		rng:        xrand.Seeded(seed),
		view:       make([]wire.ShuffleEntry, 0, cfg.ViewSize),
	}
	for _, id := range bootstrap {
		if id != self {
			s.insert(wire.ShuffleEntry{ID: id})
		}
	}
	return s, nil
}

// Self returns the record's node id.
func (s *State) Self() wire.NodeID { return s.self }

// Stop makes the record inert: Tick emits nothing and Handle ignores all
// traffic. Engines call it when the node crashes or departs; the node's
// descriptors elsewhere then age out of the overlay.
func (s *State) Stop() { s.stopped = true }

// Stopped reports whether the record has been stopped.
func (s *State) Stopped() bool { return s.stopped }

// View returns a copy of the current view.
func (s *State) View() []wire.ShuffleEntry {
	out := make([]wire.ShuffleEntry, len(s.view))
	copy(out, s.view)
	return out
}

// ShufflesSent reports initiated shuffles (metrics).
func (s *State) ShufflesSent() int { return s.shufflesSent }

// ShufflesAnswered reports answered shuffle requests (metrics).
func (s *State) ShufflesAnswered() int { return s.shufflesAnswered }

// Sample implements member.Sampler over the partial view: up to k distinct
// ids drawn uniformly from the view.
func (s *State) Sample(k int) []wire.NodeID {
	if k > len(s.view) {
		k = len(s.view)
	}
	if k <= 0 {
		return nil
	}
	for i := 0; i < k; i++ {
		j := i + s.rng.Intn(len(s.view)-i)
		s.view[i], s.view[j] = s.view[j], s.view[i]
	}
	out := make([]wire.NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = s.view[i].ID
	}
	return out
}

// Tick implements member.DynamicSampler: one shuffle round. It ages the
// view, removes the oldest descriptor, and emits a shuffle request to that
// node carrying a view sample plus a fresh self-descriptor. Dropping the
// target first is the failure-repair mechanism: if the target is dead the
// descriptor is gone; if alive it will come back fresh via its own
// shuffles.
func (s *State) Tick() (member.Emit, bool) {
	if s.stopped || len(s.view) == 0 {
		return member.Emit{}, false
	}
	oldest := 0
	for i := range s.view {
		if s.view[i].Age < maxAge {
			s.view[i].Age++
		}
		if s.view[i].Age > s.view[oldest].Age {
			oldest = i
		}
	}
	target := s.view[oldest].ID
	s.view[oldest] = s.view[len(s.view)-1]
	s.view = s.view[:len(s.view)-1]

	sample := s.sampleEntries(s.shuffleLen - 1)
	s.pending = s.pending[:0]
	for _, e := range sample {
		s.pending = append(s.pending, e.ID)
	}
	sample = append(sample, wire.ShuffleEntry{ID: s.self, Age: 0})
	s.shufflesSent++
	return member.Emit{To: target, Msg: wire.Shuffle{Entries: sample}}, true
}

// Handle implements member.DynamicSampler: it merges shuffle traffic,
// answers requests with a sample of the pre-merge view, and sheds the
// sender's descriptor on a LEAVE. Other messages are ignored, so the
// record can sit behind any dispatcher.
//
// Both shuffle directions merge with Cyclon's swap semantics. Answering a
// request, the replaceable slots are the descriptors just sampled into
// the reply — local to this call, so a node that answers requests
// between its own Tick and the matching reply cannot corrupt its
// initiator-side pending set. Receiving a reply, they are the pending
// ids recorded by the Tick that sent the request, consumed exactly once.
//
// A LEAVE removes the sender from the view immediately — no waiting for
// the descriptor to age out — and tombstones the id so stale copies
// arriving in later shuffles cannot resurrect it.
func (s *State) Handle(from wire.NodeID, msg wire.Message) (member.Emit, bool) {
	if s.stopped {
		return member.Emit{}, false
	}
	switch m := msg.(type) {
	case wire.Shuffle:
		if m.Reply {
			s.merge(m.Entries, s.pending)
			s.pending = s.pending[:0]
			return member.Emit{}, false
		}
		sample := s.sampleEntries(s.shuffleLen)
		sent := make([]wire.NodeID, len(sample))
		for i, e := range sample {
			sent[i] = e.ID
		}
		s.shufflesAnswered++
		s.merge(m.Entries, sent)
		return member.Emit{To: from, Msg: wire.Shuffle{Reply: true, Entries: sample}}, true
	case wire.Leave:
		s.noteLeave(from)
		return member.Emit{}, false
	default:
		return member.Emit{}, false
	}
}

// Goodbye announces a graceful departure: one LEAVE per current view
// entry — the partners most likely to hold this node's descriptor — and
// then the record stops, exactly as on a crash. The engine transmits the
// emissions before tearing the node down.
func (s *State) Goodbye() []member.Emit {
	if s.stopped || len(s.view) == 0 {
		s.stopped = true
		return nil
	}
	out := make([]member.Emit, 0, len(s.view))
	for _, e := range s.view {
		out = append(out, member.Emit{To: e.ID, Msg: wire.Leave{}})
	}
	s.stopped = true
	return out
}

// noteLeave sheds a departed node: its descriptor leaves the view now and
// its id joins the tombstone FIFO so merge and insert refuse stale copies.
func (s *State) noteLeave(id wire.NodeID) {
	for i := range s.view {
		if s.view[i].ID == id {
			s.view[i] = s.view[len(s.view)-1]
			s.view = s.view[:len(s.view)-1]
			break
		}
	}
	if s.tombstoned(id) {
		return
	}
	if len(s.tombs) >= tombCap*s.viewSize {
		copy(s.tombs, s.tombs[1:])
		s.tombs = s.tombs[:len(s.tombs)-1]
	}
	s.tombs = append(s.tombs, id)
}

// tombstoned reports whether id has announced a graceful departure.
func (s *State) tombstoned(id wire.NodeID) bool {
	for _, t := range s.tombs {
		if t == id {
			return true
		}
	}
	return false
}

var _ member.DynamicSampler = (*State)(nil)

// sampleEntries returns up to k copies of random view entries.
func (s *State) sampleEntries(k int) []wire.ShuffleEntry {
	if k > len(s.view) {
		k = len(s.view)
	}
	if k <= 0 {
		return nil
	}
	for i := 0; i < k; i++ {
		j := i + s.rng.Intn(len(s.view)-i)
		s.view[i], s.view[j] = s.view[j], s.view[i]
	}
	out := make([]wire.ShuffleEntry, k)
	copy(out, s.view[:k])
	return out
}

// merge folds incoming shuffle entries into the view with Cyclon's swap
// rule. Per entry, in order: the self-descriptor is skipped; a duplicate
// keeps the younger age in place; otherwise the entry fills an empty
// view slot if one exists, else replaces the next descriptor from sent —
// the ids this node just shipped to its shuffle partner — that is still
// in the view; entries beyond the replaceable slots are dropped. Each
// sent id is consumed at most once (the cursor never rewinds), so one
// merge replaces at most len(sent) descriptors: exactly the ones traded
// away, which is what conserves the global descriptor count.
func (s *State) merge(entries []wire.ShuffleEntry, sent []wire.NodeID) {
	si := 0
next:
	for _, e := range entries {
		if e.ID == s.self || s.tombstoned(e.ID) {
			continue
		}
		for i := range s.view {
			if s.view[i].ID == e.ID {
				if e.Age < s.view[i].Age {
					s.view[i].Age = e.Age
				}
				continue next
			}
		}
		if len(s.view) < s.viewSize {
			s.view = append(s.view, e)
			continue
		}
		for si < len(sent) {
			id := sent[si]
			si++
			for i := range s.view {
				if s.view[i].ID == id {
					s.view[i] = e
					continue next
				}
			}
		}
		// No free slot and nothing left to swap out: drop the entry.
	}
}

// insert seeds one bootstrap descriptor: duplicates keep the younger
// age; overflow evicts the oldest entry if the newcomer is younger.
// Shuffle traffic merges through merge's swap rule instead. Tombstoned
// ids are refused, like everywhere else.
func (s *State) insert(e wire.ShuffleEntry) {
	if s.tombstoned(e.ID) {
		return
	}
	for i := range s.view {
		if s.view[i].ID == e.ID {
			if e.Age < s.view[i].Age {
				s.view[i].Age = e.Age
			}
			return
		}
	}
	if len(s.view) < s.viewSize {
		s.view = append(s.view, e)
		return
	}
	oldest := 0
	for i := range s.view {
		if s.view[i].Age > s.view[oldest].Age {
			oldest = i
		}
	}
	if s.view[oldest].Age > e.Age {
		s.view[oldest] = e
	}
}
