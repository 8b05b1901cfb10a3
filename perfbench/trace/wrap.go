package trace

import (
	"math/rand"
	"time"

	"gossipstream/internal/core"
	"gossipstream/internal/megasim"
	"gossipstream/internal/member"
	"gossipstream/internal/wire"
)

// handler wraps a peer at the engine's megasim.Handler boundary: one span
// per delivered message, named by its kind.
type handler struct {
	t     *Tracer
	shard int
	p     *core.Peer
}

var kindSpans = [wire.KindCount]span{
	wire.KindPropose: spPropose,
	wire.KindRequest: spRequest,
	wire.KindServe:   spServe,
	wire.KindFeedMe:  spFeedMe,
}

func (h *handler) HandleMessage(from wire.NodeID, msg wire.Message) {
	l := h.t.laneFor(h.shard)
	h.t.enter(l, kindSpans[msg.Kind()])
	h.p.HandleMessage(from, msg)
	h.t.exit(l)
}

// env wraps a node's megasim.NodeEnv at the core.Env boundary: sends are
// spans of the engine, fired timers spans of core.
type env struct {
	t     *Tracer
	shard int
	inner *megasim.NodeEnv
}

var _ core.Env = (*env)(nil)

func (e *env) ID() wire.NodeID    { return e.inner.ID() }
func (e *env) Now() time.Duration { return e.inner.Now() }
func (e *env) Rand() *rand.Rand   { return e.inner.Rand() }

func (e *env) Send(to wire.NodeID, msg wire.Message) {
	l := e.t.laneFor(e.shard)
	e.t.enter(l, spSend)
	e.inner.Send(to, msg)
	e.t.exit(l)
}

func (e *env) After(d time.Duration, fn func()) func() {
	e.t.laneFor(e.shard).armed++
	return e.inner.After(d, func() {
		l := e.t.laneFor(e.shard)
		e.t.enter(l, spTimer)
		fn()
		e.t.exit(l)
	})
}

// sampler wraps a member.Sampler: one span per Sample call.
type sampler struct {
	t     *Tracer
	shard int
	inner member.Sampler
}

func (s *sampler) Sample(k int) []wire.NodeID {
	l := s.t.laneFor(s.shard)
	s.t.enter(l, spSample)
	out := s.inner.Sample(k)
	s.t.exit(l)
	return out
}

// dynSampler wraps a member.DynamicSampler at the engine's membership
// boundary: ticks and shuffle handling are spans of pss.
type dynSampler struct {
	sampler
	dyn member.DynamicSampler
}

var _ member.DynamicSampler = (*dynSampler)(nil)

func (s *dynSampler) Tick() (member.Emit, bool) {
	l := s.t.laneFor(s.shard)
	s.t.enter(l, spPSSTick)
	em, ok := s.dyn.Tick()
	s.t.exit(l)
	return em, ok
}

func (s *dynSampler) Handle(from wire.NodeID, msg wire.Message) (member.Emit, bool) {
	l := s.t.laneFor(s.shard)
	s.t.enter(l, spPSSHandle)
	em, ok := s.dyn.Handle(from, msg)
	s.t.exit(l)
	return em, ok
}
