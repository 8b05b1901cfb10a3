package pss

import (
	"testing"
	"time"

	"gossipstream/internal/megasim"
	"gossipstream/internal/shaping"
	"gossipstream/internal/wire"
)

// sink is the streaming handler of an overlay node: only membership
// traffic flows, and the engine routes it to the node's record.
type sink struct{}

func (sink) HandleMessage(wire.NodeID, wire.Message) {}

// overlay runs n records bootstrapped in a ring (each knows the next 2)
// on a one-shard engine over a flat, lossless 5 ms network, until the
// given time. setup, when non-nil, runs before the engine starts — to
// stop records or register barrier hooks.
func overlay(t *testing.T, n int, cfg Config, until time.Duration, setup func(*megasim.Engine, []*State)) (*megasim.Engine, []*State) {
	t.Helper()
	eng, err := megasim.New(megasim.Config{Net: megasim.NetConfig{BaseLatencyMedian: 5 * time.Millisecond}, Shards: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	states := make([]*State, n)
	for i := 0; i < n; i++ {
		id := eng.AddNode(sink{}, shaping.Unlimited, 0)
		boot := []wire.NodeID{wire.NodeID((i + 1) % n), wire.NodeID((i + 2) % n)}
		if states[i], err = NewState(id, cfg, int64(i+1), boot); err != nil {
			t.Fatal(err)
		}
		eng.AttachSampler(id, states[i], cfg.Period)
	}
	if setup != nil {
		setup(eng, states)
	}
	if err := eng.Run(until); err != nil {
		t.Fatal(err)
	}
	return eng, states
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default valid", func(c *Config) {}, true},
		{"zero view", func(c *Config) { c.ViewSize = 0 }, false},
		{"zero shuffle", func(c *Config) { c.ShuffleLen = 0 }, false},
		{"shuffle exceeds view", func(c *Config) { c.ShuffleLen = c.ViewSize + 1 }, false},
		{"zero period", func(c *Config) { c.Period = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestBootstrapExcludesSelf(t *testing.T) {
	st, err := NewState(3, DefaultConfig(), 1, []wire.NodeID{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range st.View() {
		if e.ID == 3 {
			t.Fatal("bootstrap included self")
		}
	}
	if len(st.View()) != 2 {
		t.Fatalf("view = %d entries, want 2", len(st.View()))
	}
}

func TestViewBounded(t *testing.T) {
	cfg := Config{ViewSize: 4, ShuffleLen: 2, Period: 100 * time.Millisecond}
	_, states := overlay(t, 30, cfg, 30*time.Second, nil)
	for i, st := range states {
		if got := len(st.View()); got > cfg.ViewSize {
			t.Fatalf("node %d view has %d entries, bound is %d", i, got, cfg.ViewSize)
		}
	}
}

func TestViewsDiversifyBeyondBootstrap(t *testing.T) {
	cfg := Config{ViewSize: 8, ShuffleLen: 4, Period: 100 * time.Millisecond}
	_, states := overlay(t, 40, cfg, 60*time.Second, nil)
	// After a minute of shuffling each node must know peers well beyond
	// its two ring successors.
	for i, st := range states {
		beyond := 0
		for _, e := range st.View() {
			d := (int(e.ID) - i + 40) % 40
			if d > 2 {
				beyond++
			}
		}
		if beyond < 3 {
			t.Fatalf("node %d still ring-bound: view %v", i, st.View())
		}
	}
}

func TestNoSelfOrDuplicateDescriptors(t *testing.T) {
	cfg := Config{ViewSize: 6, ShuffleLen: 3, Period: 100 * time.Millisecond}
	_, states := overlay(t, 25, cfg, 30*time.Second, nil)
	for i, st := range states {
		seen := make(map[wire.NodeID]bool)
		for _, e := range st.View() {
			if e.ID == wire.NodeID(i) {
				t.Fatalf("node %d has itself in view", i)
			}
			if seen[e.ID] {
				t.Fatalf("node %d has duplicate descriptor %d", i, e.ID)
			}
			seen[e.ID] = true
		}
	}
}

func TestInDegreeBalanced(t *testing.T) {
	cfg := Config{ViewSize: 8, ShuffleLen: 4, Period: 100 * time.Millisecond}
	_, states := overlay(t, 40, cfg, 60*time.Second, nil)
	indeg := make(map[wire.NodeID]int)
	for _, st := range states {
		for _, e := range st.View() {
			indeg[e.ID]++
		}
	}
	// Mean in-degree = total view entries / n ≈ 8. No node should be
	// starved (<1) or wildly popular (>4× mean).
	for id, d := range indeg {
		if d > 32 {
			t.Fatalf("node %d has in-degree %d (mean ≈8)", id, d)
		}
	}
	if len(indeg) < 35 {
		t.Fatalf("only %d of 40 nodes appear in any view", len(indeg))
	}
}

func TestSampleUniformish(t *testing.T) {
	cfg := Config{ViewSize: 10, ShuffleLen: 5, Period: 100 * time.Millisecond}
	// After a minute of shuffling, sampling repeatedly from node 0 over
	// further shuffles should reach many distinct peers.
	reached := make(map[wire.NodeID]bool)
	overlay(t, 30, cfg, 160*time.Second, func(eng *megasim.Engine, states []*State) {
		for round := 1; round <= 200; round++ {
			eng.AtBarrier(60*time.Second+time.Duration(round)*500*time.Millisecond, func() {
				for _, id := range states[0].Sample(3) {
					reached[id] = true
				}
			})
		}
	})
	if len(reached) < 20 {
		t.Fatalf("sampling from a partial view reached only %d/29 peers", len(reached))
	}
}

func TestSampleBounds(t *testing.T) {
	st, err := NewState(0, DefaultConfig(), 1, []wire.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Sample(10); len(got) != 2 {
		t.Fatalf("Sample(10) of a 2-entry view returned %d", len(got))
	}
	if got := st.Sample(0); got != nil {
		t.Fatalf("Sample(0) = %v", got)
	}
}

func TestDeadNodesAgeOut(t *testing.T) {
	cfg := Config{ViewSize: 6, ShuffleLen: 3, Period: 100 * time.Millisecond}
	// Crash node 7 after 20 s: its descriptors must eventually vanish
	// from all views (they age, get picked as oldest, and are dropped
	// without refresh).
	_, states := overlay(t, 20, cfg, 140*time.Second, func(eng *megasim.Engine, states []*State) {
		eng.AtBarrier(20*time.Second, func() {
			states[7].Stop()
			eng.Crash(7)
		})
	})
	holders := 0
	for i, st := range states {
		if i == 7 {
			continue
		}
		for _, e := range st.View() {
			if e.ID == 7 {
				holders++
			}
		}
	}
	if holders > 2 {
		t.Fatalf("dead node still present in %d views after 2 minutes", holders)
	}
}

func TestStoppedNodeSilent(t *testing.T) {
	cfg := DefaultConfig()
	eng, states := overlay(t, 5, cfg, 10*time.Second, func(_ *megasim.Engine, states []*State) {
		states[0].Stop()
	})
	if got := eng.NodeStats(0).SentMsgs[wire.KindShuffle]; got != 0 || states[0].ShufflesSent() != 0 {
		t.Fatalf("stopped node sent %d shuffles", got)
	}
	if eng.NodeStats(1).SentMsgs[wire.KindShuffle] == 0 {
		t.Fatal("live nodes did not shuffle")
	}
	// Handler is inert when stopped.
	if _, ok := states[0].Handle(1, wire.Shuffle{Entries: []wire.ShuffleEntry{{ID: 4}}}); ok {
		t.Fatal("stopped node replied to a shuffle")
	}
}

func TestShuffleRequestGetsReply(t *testing.T) {
	st, err := NewState(1, DefaultConfig(), 1, []wire.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	em, ok := st.Handle(0, wire.Shuffle{Entries: []wire.ShuffleEntry{{ID: 2, Age: 1}}})
	if !ok || em.To != 0 {
		t.Fatalf("request produced (%+v, %v), want a reply to 0", em, ok)
	}
	if reply, isShuffle := em.Msg.(wire.Shuffle); !isShuffle || !reply.Reply {
		t.Fatalf("reply = %#v, want a shuffle reply", em.Msg)
	}
	// The received descriptor must be merged immediately.
	found := false
	for _, e := range st.View() {
		if e.ID == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("shuffle entries not merged")
	}
}

func TestInsertKeepsYoungerAge(t *testing.T) {
	st, err := NewState(0, DefaultConfig(), 1, []wire.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	st.Handle(1, wire.Shuffle{Reply: true, Entries: []wire.ShuffleEntry{{ID: 1, Age: 9}}})
	if st.View()[0].Age != 0 {
		t.Fatal("older duplicate overwrote younger age")
	}
	st.view[0].Age = 9
	st.Handle(1, wire.Shuffle{Reply: true, Entries: []wire.ShuffleEntry{{ID: 1, Age: 2}}})
	if st.View()[0].Age != 2 {
		t.Fatal("younger duplicate did not refresh age")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := DefaultConfig()
	bad.ViewSize = 0
	if _, err := NewState(0, bad, 1, []wire.NodeID{1}); err == nil {
		t.Fatal("invalid config accepted")
	}
}
