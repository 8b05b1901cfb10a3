package megasim

import (
	"testing"
	"time"

	"gossipstream/internal/shaping"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

func TestPairFactorDeterministicAndBounded(t *testing.T) {
	const spread = 0.4
	for a := NodeID(0); a < 50; a += 7 {
		for b := NodeID(1); b < 50; b += 11 {
			f1 := PairFactor(42, a, b, spread)
			if f2 := PairFactor(42, a, b, spread); f1 != f2 {
				t.Fatal("pair factor not deterministic")
			}
			if f1 < 1-spread || f1 > 1+spread {
				t.Fatalf("pair factor %v outside [%v, %v]", f1, 1-spread, 1+spread)
			}
		}
	}
	// Factors must vary across pairs, directions and salts.
	if PairFactor(42, 1, 2, spread) == PairFactor(42, 3, 4, spread) && PairFactor(42, 5, 6, spread) == PairFactor(42, 7, 8, spread) {
		t.Fatal("pair factors suspiciously constant")
	}
	if PairFactor(42, 1, 2, spread) == PairFactor(42, 2, 1, spread) {
		t.Fatal("pair factor symmetric: the model orders pairs")
	}
	if PairFactor(42, 1, 2, spread) == PairFactor(43, 1, 2, spread) {
		t.Fatal("pair factor ignores the salt")
	}
	if got := PairFactor(42, 1, 2, 0); got != 1 {
		t.Fatalf("zero spread factor = %v, want 1", got)
	}
}

// msgRecorder records every delivered message with its arrival time.
type msgRecorder struct {
	env  *NodeEnv
	msgs []wire.Message
	at   []time.Duration
}

func (r *msgRecorder) HandleMessage(_ NodeID, msg wire.Message) {
	r.msgs = append(r.msgs, msg)
	r.at = append(r.at, r.env.Now())
}

// pair builds a one-shard engine over a flat 40 ms network with node 0
// (uplink capped at upBps) sending to node 1 (unlimited), and returns the
// sender's environment and the receiver's recorder.
func pair(t *testing.T, upBps int64) (*Engine, *NodeEnv, *msgRecorder) {
	t.Helper()
	e, err := newEngine(Config{Shards: 1, Net: flatNet(40 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	env0 := e.NodeEnv(0, NewRand(1))
	rec := &msgRecorder{env: e.NodeEnv(1, NewRand(2))}
	e.AddNode(&recorder{env: env0}, upBps, 1<<20)
	e.AddNode(rec, shaping.Unlimited, 0)
	return e, env0, rec
}

func TestSendShapedDelay(t *testing.T) {
	// 800 kbps uplink: a propose of 3 ids costs 7+12 = 19 application
	// bytes against the cap (IP/UDP overhead is not charged — the paper's
	// limiter throttles application bytes) → 190 µs serialization, then
	// 40 ms propagation.
	e, env0, rec := pair(t, 800_000)
	env0.Send(1, wire.Propose{IDs: []stream.PacketID{1, 2, 3}})
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if want := 190*time.Microsecond + 40*time.Millisecond; len(rec.at) != 1 || rec.at[0] != want {
		t.Fatalf("delivered at %v, want [%v]", rec.at, want)
	}
}

func TestSendQueueingIsFIFO(t *testing.T) {
	e, env0, rec := pair(t, 100_000)
	for i := 0; i < 5; i++ {
		env0.Send(1, wire.Request{IDs: []stream.PacketID{stream.PacketID(i)}})
	}
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rec.msgs) != 5 {
		t.Fatalf("delivered %d, want 5", len(rec.msgs))
	}
	for i := range rec.msgs {
		if got := rec.msgs[i].(wire.Request).IDs[0]; got != stream.PacketID(i) {
			t.Fatalf("message %d carries id %d, want FIFO order", i, got)
		}
		if i > 0 && rec.at[i] <= rec.at[i-1] {
			t.Fatal("shaped messages delivered without spacing")
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	e, env0, _ := pair(t, shaping.Unlimited)
	msg := wire.Propose{IDs: []stream.PacketID{1, 2}}
	env0.Send(1, msg)
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	sa, sb := e.NodeStats(0), e.NodeStats(1)
	// Byte counters track application bytes (what the limiter throttles).
	want := uint64(msg.WireSize() - wire.UDPOverheadBytes)
	if sa.SentBytes[wire.KindPropose] != want || sa.SentMsgs[wire.KindPropose] != 1 {
		t.Fatalf("sender stats = %d bytes %d msgs, want %d 1", sa.SentBytes[wire.KindPropose], sa.SentMsgs[wire.KindPropose], want)
	}
	if sb.RecvBytes[wire.KindPropose] != want || sb.RecvMsgs[wire.KindPropose] != 1 {
		t.Fatalf("receiver stats = %d bytes %d msgs, want %d 1", sb.RecvBytes[wire.KindPropose], sb.RecvMsgs[wire.KindPropose], want)
	}
	if sa.TotalSentBytes() != want || sb.TotalRecvBytes() != want {
		t.Fatal("totals disagree with per-kind counters")
	}
}

func TestInFlightFromCrashedSenderDropped(t *testing.T) {
	e, env0, rec := pair(t, shaping.Unlimited)
	env0.Send(1, wire.FeedMe{})
	// Crash the sender before propagation completes: the packet dies.
	e.AtBarrier(10*time.Millisecond, func() { e.Crash(0) })
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rec.msgs) != 0 {
		t.Fatal("in-flight message from crashed sender delivered")
	}
	if got := e.NodeStats(1).DeadDrops; got != 1 {
		t.Fatalf("receiver DeadDrops = %d, want 1", got)
	}
}

func TestLatencyHeterogeneity(t *testing.T) {
	e, err := New(Config{Shards: 1, Seed: 7, Net: DefaultNetConfig()})
	if err != nil {
		t.Fatal(err)
	}
	var min, max time.Duration
	for i := 0; i < 100; i++ {
		id := e.AddNode(&recorder{}, shaping.Unlimited, 0)
		l := e.BaseLatency(id)
		if i == 0 || l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max < 2*min {
		t.Fatalf("base latencies too homogeneous: min %v max %v", min, max)
	}
}

func TestNilHandlerPanics(t *testing.T) {
	e, err := New(Config{Shards: 1, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode(nil) did not panic")
		}
	}()
	e.AddNode(nil, 0, 0)
}

func TestUnknownNodePanics(t *testing.T) {
	_, env0, _ := pair(t, shaping.Unlimited)
	defer func() {
		if recover() == nil {
			t.Fatal("Send to unknown node did not panic")
		}
	}()
	env0.Send(5, wire.FeedMe{})
}
