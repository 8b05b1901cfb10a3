package megasim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gossipstream/internal/member"
	"gossipstream/internal/shaping"
	"gossipstream/internal/wire"
)

// assertConserved checks TotalStats' conservation identity: every message
// counted sent was either received or accounted to exactly one drop
// bucket. Stale-handle deliveries fold into DeadDrops; stale-handle sends
// are never counted sent, so the identity is exact under any churn.
func assertConserved(t *testing.T, s Stats) {
	t.Helper()
	var sent, recv uint64
	for k := range s.SentMsgs {
		sent += s.SentMsgs[k]
		recv += s.RecvMsgs[k]
	}
	if sent != recv+s.RandomDrops+s.DeadDrops {
		t.Fatalf("conservation broken: sent %d != recv %d + random %d + dead %d",
			sent, recv, s.RandomDrops, s.DeadDrops)
	}
}

func mustPanicContains(t *testing.T, name, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", name)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("%s panic %q does not contain %q", name, msg, want)
		}
	}()
	fn()
}

// TestArenaSlotRecyclingLifecycle walks one slot through the full recycle
// path at barriers: Release parks it in quarantine for a lookahead window,
// PeekNextID keeps naming a fresh slot until the window expires, then the
// next AddNode reuses the slot at the next generation and the old handle
// turns detectably stale.
func TestArenaSlotRecyclingLifecycle(t *testing.T) {
	e, err := newEngine(Config{Shards: 1, Net: flatNet(10 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if id := e.AddNode(sink{}, shaping.Unlimited, 0); id != NodeID(i) {
			t.Fatalf("setup id %d, want dense %d", id, i)
		}
	}
	old := NodeID(1)
	var reused NodeID
	e.AtBarrier(20*time.Millisecond, func() {
		e.Crash(old)
		e.Release(old)
		if got := e.PeekNextID(); got != NodeID(3) {
			t.Fatalf("PeekNextID at the Release barrier = %d, want fresh slot 3 (quarantined)", got)
		}
	})
	e.AtBarrier(25*time.Millisecond, func() {
		// Half a lookahead window later the slot is still quarantined.
		if got := e.PeekNextID(); got != NodeID(3) {
			t.Fatalf("PeekNextID inside the quarantine window = %d, want 3", got)
		}
	})
	e.AtBarrier(30*time.Millisecond, func() {
		// One full lookahead past the Release: the slot is recyclable.
		want := makeID(1, 1)
		if got := e.PeekNextID(); got != want {
			t.Fatalf("PeekNextID after quarantine = %d, want %d (slot 1, gen 1)", got, want)
		}
		reused = e.AddNode(sink{}, shaping.Unlimited, 0)
		if reused != want {
			t.Fatalf("AddNode returned %d, PeekNextID promised %d", reused, want)
		}
	})
	if err := e.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if Slot(reused) != 1 || Gen(reused) != 1 {
		t.Fatalf("reused handle %d decodes to slot %d gen %d, want 1/1", reused, Slot(reused), Gen(reused))
	}
	if e.N() != 3 || e.Added() != 4 || e.Recycled() != 1 {
		t.Fatalf("N %d Added %d Recycled %d, want 3/4/1", e.N(), e.Added(), e.Recycled())
	}
	if !e.Alive(reused) {
		t.Fatal("reused slot's new incarnation is not alive")
	}
	if st := e.NodeStats(reused); st != (Stats{}) {
		t.Fatalf("new incarnation inherited counters: %+v", st)
	}
	// Every accessor rejects the departed incarnation's handle by name.
	mustPanicContains(t, "Alive(stale)", "stale handle", func() { e.Alive(old) })
	mustPanicContains(t, "NodeStats(stale)", "slot 1 is at generation 1", func() { e.NodeStats(old) })
}

// staleDeliveryEngine builds the canonical recycling race: a message sent
// to a node's handle after its Release but before its slot recycles,
// arriving after the reuse. Returns the engine (not yet Run) and the new
// incarnation's recorder.
func staleDeliveryEngine(t *testing.T, shards int, panicOnStale bool) (*Engine, *recorder) {
	t.Helper()
	e, err := newEngine(Config{Shards: shards, Net: flatNet(10 * time.Millisecond), PanicOnStale: panicOnStale})
	if err != nil {
		t.Fatal(err)
	}
	env0 := e.NodeEnv(0, NewRand(1))
	e.AddNode(&recorder{env: env0}, shaping.Unlimited, 0)
	e.AddNode(sink{}, shaping.Unlimited, 0)
	r2 := &recorder{}
	e.AtBarrier(20*time.Millisecond, func() {
		e.Crash(1)
		e.Release(1)
	})
	// In flight at 25 ms, addressed to the gen-0 handle, arriving at 35 ms
	// — after the slot recycles at the 30 ms barrier.
	env0.After(25*time.Millisecond, func() { env0.Send(1, wire.FeedMe{}) })
	e.AtBarrier(30*time.Millisecond, func() {
		id := e.PeekNextID()
		r2.env = e.NodeEnv(id, NewRand(2))
		if got := e.AddNode(r2, shaping.Unlimited, 0); got != makeID(1, 1) {
			t.Fatalf("reuse minted %d, want slot 1 gen 1", got)
		}
	})
	return e, r2
}

// TestStaleReferenceDetection is the "event addressed to a dead
// incarnation" table: each scenario plants a reference that outlives its
// node — an in-flight delivery, a cross-shard outbox entry, a descriptor
// held in a sampler's view, a timer chain — and asserts the engine detects
// it (counted drop, or designed silent chain end) instead of corrupting
// the slot's new occupant.
func TestStaleReferenceDetection(t *testing.T) {
	t.Run("delivery-same-shard", func(t *testing.T) { staleDeliveryCase(t, 1) })
	t.Run("delivery-cross-shard-outbox", func(t *testing.T) { staleDeliveryCase(t, 2) })

	// A timer chain belonging to the departed incarnation fires after the
	// slot recycled and tries to send: the send is dropped silently — never
	// counted sent, so conservation needs no balancing entry — and the new
	// occupant's counters stay untouched.
	t.Run("send-from-stale-timer", func(t *testing.T) {
		e, err := newEngine(Config{Shards: 1, Net: flatNet(10 * time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		e.AddNode(&recorder{}, shaping.Unlimited, 0)
		env1 := e.NodeEnv(1, NewRand(2))
		e.AddNode(&recorder{env: env1}, shaping.Unlimited, 0)
		e.AtBarrier(20*time.Millisecond, func() { e.Crash(1); e.Release(1) })
		e.AtBarrier(30*time.Millisecond, func() { e.AddNode(sink{}, shaping.Unlimited, 0) })
		env1.After(35*time.Millisecond, func() { env1.Send(0, wire.FeedMe{}) })
		if err := e.Run(60 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		total := e.TotalStats()
		if total.SentMsgs[wire.KindFeedMe] != 0 {
			t.Fatalf("send from a stale handle was counted sent: %+v", total)
		}
		if e.StaleDrops() != 0 {
			t.Fatalf("StaleDrops = %d; stale sends must not count (only deliveries balance sent)", e.StaleDrops())
		}
		assertConserved(t, total)
	})

	// A sampler's view retains the departed node's descriptor: shuffles
	// keep flowing to the stale handle. Deliveries during quarantine
	// dead-drop on the released slot; deliveries after reuse are stale
	// drops; the new occupant sees none of it.
	t.Run("sampler-held-descriptor", func(t *testing.T) {
		e, err := newEngine(Config{Shards: 1, Net: flatNet(10 * time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		h := &holder{to: 1}
		e.AddNode(sink{}, shaping.Unlimited, 0)
		e.AttachSampler(0, h, 8*time.Millisecond)
		e.AddNode(sink{}, shaping.Unlimited, 0)
		var newID NodeID
		e.AtBarrier(20*time.Millisecond, func() { e.Crash(1); e.Release(1) })
		e.AtBarrier(30*time.Millisecond, func() { newID = e.AddNode(sink{}, shaping.Unlimited, 0) })
		// Silence the emitter before the horizon so in-flight shuffles
		// drain and the conservation identity is exact at run end.
		e.AtBarrier(130*time.Millisecond, func() { e.Crash(0) })
		if err := e.Run(150 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if e.StaleDrops() == 0 {
			t.Fatal("no stale drops: shuffles to the recycled descriptor went somewhere")
		}
		if st := e.NodeStats(newID); st != (Stats{}) {
			t.Fatalf("new occupant received stale-descriptor traffic: %+v", st)
		}
		total := e.TotalStats()
		if total.SentMsgs[wire.KindShuffle] == 0 || total.DeadDrops == 0 {
			t.Fatalf("scenario did not exercise quarantine + stale paths: %+v", total)
		}
		assertConserved(t, total)
	})

	// The departed incarnation's membership tick chain must end at its
	// first post-reuse tick — silently, even under PanicOnStale (this is
	// the designed end of the chain, not an error) — and must not tick the
	// new occupant's sampler: a missing generation check would double the
	// new sampler's rate.
	t.Run("member-tick-chain", func(t *testing.T) {
		e, err := newEngine(Config{Shards: 1, Net: flatNet(10 * time.Millisecond), PanicOnStale: true})
		if err != nil {
			t.Fatal(err)
		}
		e.AddNode(sink{}, shaping.Unlimited, 0)
		c1, c2 := &countTick{}, &countTick{}
		e.AddNode(sink{}, shaping.Unlimited, 0)
		e.AttachSampler(1, c1, 7*time.Millisecond)
		e.AtBarrier(20*time.Millisecond, func() { e.Crash(1); e.Release(1) })
		e.AtBarrier(30*time.Millisecond, func() {
			id := e.AddNode(sink{}, shaping.Unlimited, 0)
			e.AttachSampler(id, c2, 7*time.Millisecond)
		})
		if err := e.Run(200 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if c1.n < 1 || c1.n > 3 {
			t.Fatalf("departed sampler ticked %d times, want 1..3 (life ended at 20 ms)", c1.n)
		}
		// ≈ (200-30)/7 ≈ 24 ticks on its own schedule; a leaked stale chain
		// would roughly double this.
		if c2.n < 20 || c2.n > 26 {
			t.Fatalf("new incarnation's sampler ticked %d times, want ≈24 (its own chain only)", c2.n)
		}
	})
}

func staleDeliveryCase(t *testing.T, shards int) {
	e, r2 := staleDeliveryEngine(t, shards, false)
	if err := e.Run(60 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := e.StaleDrops(); got != 1 {
		t.Fatalf("StaleDrops = %d, want 1", got)
	}
	if len(r2.froms) != 0 {
		t.Fatal("stale delivery reached the slot's new occupant")
	}
	var shardSum uint64
	var outboxOut uint64
	for _, l := range e.ShardLoads() {
		shardSum += l.StaleDrops
		outboxOut += l.OutboxOut
	}
	if shardSum != 1 {
		t.Fatalf("ShardLoads stale drops sum %d, want 1", shardSum)
	}
	if shards > 1 && outboxOut == 0 {
		t.Fatal("cross-shard case moved no outbox traffic: the stale delivery never crossed a barrier hand-off")
	}
	total := e.TotalStats()
	if total.SentMsgs[wire.KindFeedMe] != 1 || total.DeadDrops != 1 {
		t.Fatalf("stale delivery accounting: %+v (want 1 sent, 1 dead drop)", total)
	}
	assertConserved(t, total)
}

// TestPanicOnStale proves detection is promotable to a hard failure: the
// same races that count drops in a run panic with the uniform stale-handle
// message when Config.PanicOnStale is set.
func TestPanicOnStale(t *testing.T) {
	t.Run("deliver", func(t *testing.T) {
		e, _ := staleDeliveryEngine(t, 1, true)
		mustPanicContains(t, "Run with stale delivery", "megasim: deliver: stale handle", func() {
			_ = e.Run(60 * time.Millisecond)
		})
	})
	t.Run("send", func(t *testing.T) {
		e, err := newEngine(Config{Shards: 1, Net: flatNet(10 * time.Millisecond), PanicOnStale: true})
		if err != nil {
			t.Fatal(err)
		}
		e.AddNode(sink{}, shaping.Unlimited, 0)
		env1 := e.NodeEnv(1, NewRand(2))
		e.AddNode(&recorder{env: env1}, shaping.Unlimited, 0)
		e.AtBarrier(20*time.Millisecond, func() { e.Crash(1); e.Release(1) })
		e.AtBarrier(30*time.Millisecond, func() { e.AddNode(sink{}, shaping.Unlimited, 0) })
		env1.After(35*time.Millisecond, func() { env1.Send(0, wire.FeedMe{}) })
		mustPanicContains(t, "Run with stale send", "megasim: send: stale handle", func() {
			_ = e.Run(60 * time.Millisecond)
		})
	})
}

// TestReleasePanicShapes pins the named, actionable panics on every way to
// misuse Release and the handle-resolving accessors.
func TestReleasePanicShapes(t *testing.T) {
	e, err := newEngine(Config{Shards: 1, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	e.AddNode(sink{}, shaping.Unlimited, 0)
	e.AddNode(sink{}, shaping.Unlimited, 0)
	mustPanicContains(t, "Release(out of range)", "megasim: Release: unknown node 99", func() { e.Release(99) })
	mustPanicContains(t, "Release(negative)", "unknown node", func() { e.Release(-1) })
	mustPanicContains(t, "Release(live)", "Release of live node", func() { e.Release(1) })
	e.Crash(1)
	e.Release(1)
	mustPanicContains(t, "Release(released)", "already released", func() { e.Release(1) })
	// During setup the lookahead is zero, so the quarantine drains
	// immediately: the next AddNode recycles slot 1 and the old handle is
	// stale from then on.
	if id := e.AddNode(sink{}, shaping.Unlimited, 0); id != makeID(1, 1) {
		t.Fatalf("setup-time recycle minted %d, want slot 1 gen 1", id)
	}
	mustPanicContains(t, "Release(stale)", "stale handle", func() { e.Release(1) })
}

// churnRun drives a lossy, jittery multi-shard population through ten
// release-and-admit cycles, the arena recycling slots throughout. Chatters
// keep sending to the original dense gen-0 handles, so stale deliveries
// occur by construction.
func churnRun(t *testing.T) *Engine {
	t.Helper()
	e, err := newEngine(Config{
		Shards: 3,
		Seed:   9,
		Net: NetConfig{
			BaseLatencyMedian: 5 * time.Millisecond,
			BaseLatencySigma:  0.3,
			JitterFrac:        0.2,
			PairSpread:        0.2,
			LossRate:          0.1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	live := make([]NodeID, 0, n+1)
	for i := 0; i < n; i++ {
		env := e.NodeEnv(NodeID(i), NewRand(int64(200+i)))
		c := &chatter{env: env, n: n, period: 3 * time.Millisecond}
		live = append(live, e.AddNode(c, 256_000, 4096))
		c.start()
	}
	for i := 0; i < 10; i++ {
		victim := NodeID(i + 1)
		seed := int64(500 + i)
		e.AtBarrier(time.Duration(100+30*i)*time.Millisecond, func() {
			e.Crash(victim)
			e.Release(victim)
			for j, id := range live {
				if id == victim {
					live = append(live[:j], live[j+1:]...)
					break
				}
			}
			id := e.PeekNextID()
			c := &chatter{env: e.NodeEnv(id, NewRand(seed)), n: n, period: 3 * time.Millisecond}
			if got := e.AddNode(c, 256_000, 4096); got != id {
				t.Fatalf("AddNode minted %d, PeekNextID promised %d", got, id)
			}
			live = append(live, id)
			c.start()
		})
	}
	// Silence everyone well before the horizon: crashed chatters' timer
	// chains keep firing but their sends drop uncounted, so every message
	// that WAS counted sent drains to a receive or a drop bucket by run
	// end and the conservation identity is exact.
	e.AtBarrier(450*time.Millisecond, func() {
		for _, id := range live {
			e.Crash(id)
		}
	})
	if err := e.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestArenaStatsConservationUnderChurn: ten recycle cycles of lossy
// traffic, every counter conserved — departed incarnations' stats fold
// into the departed accumulator at reuse, stale deliveries into
// DeadDrops, and the identity sent == recv + drops holds exactly.
func TestArenaStatsConservationUnderChurn(t *testing.T) {
	e := churnRun(t)
	if e.Added() != 40 || e.Recycled() != 9 || e.N() != 31 {
		t.Fatalf("Added %d Recycled %d N %d, want 40/9/31 (first reuse waits out quarantine)",
			e.Added(), e.Recycled(), e.N())
	}
	if e.N() != e.Added()-e.Recycled() {
		t.Fatalf("arena size %d != added %d - recycled %d", e.N(), e.Added(), e.Recycled())
	}
	if e.StaleDrops() == 0 {
		t.Fatal("no stale drops: chatters address dense gen-0 handles, some must land on recycled slots")
	}
	total := e.TotalStats()
	if total.RandomDrops == 0 || total.DeadDrops == 0 || total.SentMsgs[wire.KindFeedMe] == 0 {
		t.Fatalf("scenario did not exercise all drop paths: %+v", total)
	}
	assertConserved(t, total)
}

// TestArenaChurnReplayDeterminism: the recycling machinery — quarantine
// drains, FIFO slot reuse, generation bumps, stats folds — is part of the
// deterministic schedule: twin runs are bit-identical.
func TestArenaChurnReplayDeterminism(t *testing.T) {
	a, b := churnRun(t), churnRun(t)
	if a.Fired() != b.Fired() {
		t.Fatalf("fired %d vs %d across replays", a.Fired(), b.Fired())
	}
	if a.Recycled() != b.Recycled() || a.StaleDrops() != b.StaleDrops() {
		t.Fatalf("recycling diverged: recycled %d/%d, stale %d/%d",
			a.Recycled(), b.Recycled(), a.StaleDrops(), b.StaleDrops())
	}
	if !reflect.DeepEqual(a.TotalStats(), b.TotalStats()) {
		t.Fatal("TotalStats differ across replays")
	}
	for i := range a.nodes {
		if a.nodes[i].stats != b.nodes[i].stats {
			t.Fatalf("slot %d counters differ across replays", i)
		}
		if a.nodes[i].gen != b.nodes[i].gen {
			t.Fatalf("slot %d at generation %d vs %d", i, a.nodes[i].gen, b.nodes[i].gen)
		}
	}
}

// TestArenaMemoryStaysFlat is the tentpole guarantee in miniature: under
// steady join/leave churn the arena stops growing — memory is O(live
// nodes), not O(nodes ever).
func TestArenaMemoryStaysFlat(t *testing.T) {
	e, err := newEngine(Config{Shards: 2, Net: flatNet(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	const live, rounds = 40, 100
	var cur []NodeID
	for i := 0; i < live; i++ {
		cur = append(cur, e.AddNode(sink{}, shaping.Unlimited, 0))
	}
	for i := 0; i < rounds; i++ {
		e.AtBarrier(time.Duration(i+1)*20*time.Millisecond, func() {
			victim := cur[0]
			cur = cur[1:]
			e.Crash(victim)
			e.Release(victim)
			cur = append(cur, e.AddNode(sink{}, shaping.Unlimited, 0))
		})
	}
	if err := e.Run(time.Duration(rounds+2) * 20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if e.Added() != live+rounds {
		t.Fatalf("Added = %d, want %d", e.Added(), live+rounds)
	}
	if e.Live() != live {
		t.Fatalf("Live = %d, want steady %d", e.Live(), live)
	}
	// The 20 ms churn period dwarfs the 5 ms quarantine, so after the
	// first round every admit reuses a slot: the arena grows by at most
	// one slot over 100 joins.
	if e.N() > live+1 {
		t.Fatalf("arena grew to %d slots for %d live nodes over %d joins: recycling is not working",
			e.N(), live, e.Added())
	}
	if e.Recycled() != e.Added()-e.N() {
		t.Fatalf("Recycled %d != Added %d - N %d", e.Recycled(), e.Added(), e.N())
	}
}

// holder is a membership record whose view permanently holds one
// descriptor: every tick shuffles toward it. It models a sampler whose
// partial view retains a departed node past its slot's recycling.
type holder struct{ to NodeID }

func (h *holder) Sample(int) []wire.NodeID { return nil }
func (h *holder) Tick() (member.Emit, bool) {
	return member.Emit{To: h.to, Msg: wire.Shuffle{}}, true
}
func (h *holder) Handle(wire.NodeID, wire.Message) (member.Emit, bool) { return member.Emit{}, false }

// countTick counts its protocol rounds and never emits.
type countTick struct{ n int }

func (c *countTick) Sample(int) []wire.NodeID  { return nil }
func (c *countTick) Tick() (member.Emit, bool) { c.n++; return member.Emit{}, false }
func (c *countTick) Handle(wire.NodeID, wire.Message) (member.Emit, bool) {
	return member.Emit{}, false
}

// FuzzArenaRecycling interleaves AddNode / Crash / Release / sends to
// arbitrary (possibly stale) handles at successive barriers, then checks
// the arena's invariants and replays the schedule for bit-identity. Each
// input byte is one barrier action: the low two bits select the op, the
// high six select the target.
func FuzzArenaRecycling(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3, 3, 3})
	f.Add([]byte{1, 2, 0, 1, 2, 0, 1, 2, 0, 255, 254, 253})
	f.Add([]byte{3, 7, 11, 15, 19, 23, 2, 2, 2, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 48 {
			data = data[:48]
		}
		type outcome struct {
			total    Stats
			fired    uint64
			stale    uint64
			added    int
			recycled int
			n        int
			live     int
			cur      []NodeID
		}
		run := func() outcome {
			e, err := New(Config{Shards: 2, Seed: 5, Net: flatNet(5 * time.Millisecond)})
			if err != nil {
				t.Fatal(err)
			}
			env0 := e.NodeEnv(0, NewRand(1))
			e.AddNode(&recorder{env: env0}, shaping.Unlimited, 0)
			// Model state, mutated by the barrier callbacks in order.
			handles := []NodeID{0}      // every handle ever minted
			liveIDs := []NodeID{0}      // currently alive
			var crashed []NodeID        // crashed, not yet released
			cur := map[int]NodeID{0: 0} // slot -> current incarnation
			for i, b := range data {
				b := b
				e.AtBarrier(time.Duration(i+1)*10*time.Millisecond, func() {
					sel := int(b >> 2)
					switch b & 3 {
					case 0: // admit
						want := e.PeekNextID()
						id := e.AddNode(sink{}, shaping.Unlimited, 0)
						if id != want {
							t.Fatalf("AddNode minted %d, PeekNextID promised %d", id, want)
						}
						handles = append(handles, id)
						liveIDs = append(liveIDs, id)
						cur[Slot(id)] = id
					case 1: // crash a live non-hub node
						if len(liveIDs) < 2 {
							return
						}
						i := 1 + sel%(len(liveIDs)-1)
						victim := liveIDs[i]
						liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
						crashed = append(crashed, victim)
						e.Crash(victim)
					case 2: // release a crashed node
						if len(crashed) == 0 {
							return
						}
						i := sel % len(crashed)
						victim := crashed[i]
						crashed = append(crashed[:i], crashed[i+1:]...)
						e.Release(victim)
					case 3: // hub sends to any handle ever minted
						env0.Send(handles[sel%len(handles)], wire.FeedMe{})
					}
				})
			}
			if err := e.Run(time.Duration(len(data)+2) * 10 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			out := outcome{
				total:    e.TotalStats(),
				fired:    e.Fired(),
				stale:    e.StaleDrops(),
				added:    e.Added(),
				recycled: e.Recycled(),
				n:        e.N(),
				live:     e.Live(),
			}
			for slot := 0; slot < e.N(); slot++ {
				id := cur[slot]
				out.cur = append(out.cur, id)
				alive := false
				for _, l := range liveIDs {
					if l == id {
						alive = true
					}
				}
				if e.Alive(id) != alive {
					t.Fatalf("slot %d handle %d: engine alive %v, model %v", slot, id, e.Alive(id), alive)
				}
			}
			if out.live != len(liveIDs) {
				t.Fatalf("Live = %d, model says %d", out.live, len(liveIDs))
			}
			if out.n != out.added-out.recycled {
				t.Fatalf("N %d != Added %d - Recycled %d", out.n, out.added, out.recycled)
			}
			assertConserved(t, out.total)
			return out
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("replay diverged:\n%+v\n%+v", a, b)
		}
	})
}
