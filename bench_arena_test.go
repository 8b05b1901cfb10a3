// Arena-recycling memory benchmarks: a 10k-node Cyclon membership
// substrate run for three simulated hours, once under sustained 1%/s
// join/leave churn with departed slots released to the arena, and once
// churn-free. Before PR 9 the churned run's node-state arena grew by one
// slot per join (≈1.08M extra slots over the three hours); with
// generation-tagged slot recycling the arena stays at the live population
// and the end-of-run live heap matches the churn-free twin. cmd/benchjson
// pairs the rows into BENCH_sim.json's "megasim_arena_recycling" section.
//
// The scenario is engine-level on one shard: the leak under test lives in
// the arena, not the streaming layer, and a single-core box spends its
// time on events rather than window phases over a 10,800-second horizon.
package gossipstream

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gossipstream/internal/megasim"
	"gossipstream/internal/pss"
	"gossipstream/internal/shaping"
	"gossipstream/internal/wire"
)

// arenaSink ignores all protocol traffic: the benchmark exercises the
// membership substrate and the arena alone.
type arenaSink struct{}

func (arenaSink) HandleMessage(megasim.NodeID, wire.Message) {}

// benchArenaRecycling runs the scenario and reports end-of-run live heap,
// total incarnations admitted, and the arena high-water slot count.
func benchArenaRecycling(b *testing.B, churn bool) {
	const (
		nodes   = 10_000
		hours   = 3
		perSec  = nodes / 100 // 1%/s each way
		horizon = hours * 3600 * time.Second
	)
	pssCfg := pss.Config{ViewSize: 20, ShuffleLen: 8, Period: time.Second}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := megasim.New(megasim.Config{
			Shards: 1,
			Seed:   1,
			Queue:  megasim.QueueCalendar,
			Net: megasim.NetConfig{
				BaseLatencyMedian: 20 * time.Millisecond,
				BaseLatencySigma:  0.4,
				JitterFrac:        0.3,
				PairSpread:        0.3,
				LossRate:          0.05,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		seedCtr := int64(1 << 20)
		live := make([]megasim.NodeID, 0, nodes)
		admit := func() {
			id := e.PeekNextID()
			boot := make([]wire.NodeID, 0, pssCfg.ShuffleLen)
			for len(boot) < pssCfg.ShuffleLen {
				boot = append(boot, live[rng.Intn(len(live))])
			}
			seedCtr++
			st, err := pss.NewState(id, pssCfg, seedCtr, boot)
			if err != nil {
				b.Fatal(err)
			}
			if got := e.AddNode(arenaSink{}, shaping.Unlimited, 0); got != id {
				b.Fatalf("AddNode minted %d, PeekNextID promised %d", got, id)
			}
			e.AttachSampler(id, st, pssCfg.Period)
			live = append(live, id)
		}
		live = append(live, e.AddNode(arenaSink{}, shaping.Unlimited, 0))
		for len(live) < nodes {
			admit()
		}
		if churn {
			for s := 1; s <= hours*3600; s++ {
				e.AtBarrier(time.Duration(s)*time.Second, func() {
					for k := 0; k < perSec; k++ {
						j := rng.Intn(len(live))
						victim := live[j]
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
						e.Crash(victim)
						e.Release(victim)
					}
					for k := 0; k < perSec; k++ {
						admit()
					}
				})
			}
		}
		if err := e.Run(horizon); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live-MB")
		b.ReportMetric(float64(e.Fired()), "events/op")
		b.ReportMetric(float64(e.Added()), "joins")
		b.ReportMetric(float64(e.N()), "arena-slots")
		b.ReportMetric(float64(e.StaleDrops()), "stale-drops")
		b.StartTimer()
	}
}

// BenchmarkMegasimArenaRecyclingChurn / ...Baseline are the acceptance
// pair: the churned run admits ≈1.09M incarnations over three simulated
// hours yet must hold its live heap within 1.25× of the churn-free twin.
// Several minutes each; run with -benchtime=1x.
func BenchmarkMegasimArenaRecyclingChurn(b *testing.B) {
	if testing.Short() {
		b.Skip("3-simulated-hour churn run skipped in -short mode")
	}
	benchArenaRecycling(b, true)
}

func BenchmarkMegasimArenaRecyclingBaseline(b *testing.B) {
	if testing.Short() {
		b.Skip("3-simulated-hour churn run skipped in -short mode")
	}
	benchArenaRecycling(b, false)
}
