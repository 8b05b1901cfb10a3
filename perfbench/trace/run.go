package trace

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"gossipstream/internal/experiment"
	"gossipstream/internal/wire"
	"gossipstream/perfbench/ledger"
	"gossipstream/perfbench/profattr"
)

// SelfSumTolerancePct bounds how far the sum of all self times may stray
// from the traced run's lane time (see Run) before the trace reports a
// mismatch.
const SelfSumTolerancePct = 1.0

// MinAttributedPct is the share of CPU samples the profile pass must
// attribute to named layers.
const MinAttributedPct = 90.0

// Run rebuilds cfg's deployment from the layers' constructors and runs it
// once under the tracer and the CPU profiler. Self times are lane times:
// with s shards, s goroutines run node code during Engine.Run, so all
// self times together sum to the traced wall time plus (s−1) times the
// time in Engine.Run. The engine's own self time is what Engine.Run
// leaves after the spans inside it.
func Run(cfg experiment.Config) (*ledger.LayerRun, error) {
	if err := supported(cfg); err != nil {
		return nil, err
	}
	shards := min(cfg.Shards, cfg.Nodes)
	t := newTracer(shards)
	gc0 := readUint("/gc/cycles/total:gc-cycles")
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	heapPeak := sampleHeap()
	var peak uint64
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			pprof.StopCPUProfile()
			peak = heapPeak()
		}
	}
	defer stop()

	sup := t.supervisor()
	start := t.now()
	t.enter(sup, spBuild)
	d, err := build(cfg, t)
	t.exit(sup)
	if err != nil {
		return nil, err
	}
	supBefore := sup.root
	runStart := t.now()
	t.super = false
	err = d.eng.Run(cfg.Layout.Duration() + cfg.Drain)
	t.super = true
	runNS := t.now() - runStart
	supInRun := sup.root - supBefore
	if err == nil {
		err = d.err
	}
	if err != nil {
		return nil, err
	}
	t.enter(sup, spScore)
	manifest, counters := d.score()
	t.exit(sup)
	wallNS := t.now() - start
	stop()
	gcCycles := readUint("/gc/cycles/total:gc-cycles") - gc0

	p, err := profattr.Parse(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares, nSamples := profattr.Shares(p)

	out := &ledger.LayerRun{
		Seed:     cfg.Seed,
		WallNS:   wallNS,
		Events:   manifest.Events,
		Samples:  nSamples,
		Metrics:  map[string]float64{},
		Manifest: manifest,
	}
	m := out.Metrics
	self, calls, armed := t.totals()
	var shardRoot int64
	for _, l := range t.lanes[:shards] {
		shardRoot += l.root
	}
	engineSelf := int64(shards)*runNS - shardRoot - supInRun
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	// Trace self-check.
	var problems []string
	total := engineSelf
	for k := span(0); k < numSpans; k++ {
		total += self[k]
		if self[k] < 0 {
			problems = append(problems, fmt.Sprintf("%s has negative self time %d ns", spanNames[k], self[k]))
		}
	}
	if engineSelf < 0 {
		problems = append(problems, fmt.Sprintf("engine self time %d ns is negative", engineSelf))
	}
	if !t.balanced() {
		problems = append(problems, "a span was left open")
	}
	expect := wallNS + int64(shards-1)*runNS
	sumErr := 100 * float64(abs(total-expect)) / float64(expect)
	if sumErr > SelfSumTolerancePct {
		problems = append(problems, fmt.Sprintf("self times sum to %.1f ms, lane time is %.1f ms (%.2f%% off, tolerance %.1f%%)",
			ms(total), ms(expect), sumErr, SelfSumTolerancePct))
	}
	attributed := 100 - shares[profattr.Unattributed]
	if attributed < MinAttributedPct {
		problems = append(problems, fmt.Sprintf("profile attributes %.1f%% of %d samples to named layers, want >= %.0f%%",
			attributed, nSamples, MinAttributedPct))
	}

	for _, k := range []span{spBuild, spScore} {
		m[spanNames[k]+".self_ms"] = ms(self[k])
	}
	for _, k := range []span{spAdmit, spDepart, spSend, spPropose, spRequest, spServe, spFeedMe, spPSSTick, spPSSHandle, spSample} {
		m[spanNames[k]+".calls"] = float64(calls[k])
		m[spanNames[k]+".self_ms"] = ms(self[k])
	}
	m["core.timer.armed"] = float64(armed)
	m["core.timer.fired"] = float64(calls[spTimer])
	m["core.timer.self_ms"] = ms(self[spTimer])

	eng := d.eng
	events := manifest.Events
	loads := manifest.ShardLoads
	var timers, delivers, ticks, windows, cross, maxEv uint64
	peakQ := 0
	for _, l := range loads {
		timers += l.Timers
		delivers += l.Delivers
		ticks += l.MemberTicks
		windows += l.Windows
		cross += l.OutboxOut
		maxEv = max(maxEv, l.Events)
		peakQ = max(peakQ, l.HeapPeak)
	}
	wall := manifest.Wall
	m["megasim.events"] = float64(events)
	m["megasim.timers"] = float64(timers)
	m["megasim.delivers"] = float64(delivers)
	m["megasim.member_ticks"] = float64(ticks)
	m["megasim.self_ms"] = ms(engineSelf)
	m["megasim.ns_per_event"] = float64(engineSelf) / float64(max(events, 1))
	m["megasim.queue_peak"] = float64(peakQ)
	m["megasim.windows"] = float64(windows)
	m["megasim.merge_ms"] = ms(wall.MergeNS)
	m["megasim.barrier_ms"] = ms(wall.BarrierNS)
	m["megasim.cross_shard_msgs"] = float64(cross)
	m["megasim.shard_imbalance"] = float64(maxEv) * float64(len(loads)) / float64(max(events, 1))
	m["megasim.stale_drops"] = float64(eng.StaleDrops())

	m["core.retx_ratio"] = ratio(counters.Retransmissions, counters.RequestsSent)
	m["core.dup_serve_ratio"] = ratio(counters.DuplicateServes, counters.PacketsServed)

	traffic := manifest.Traffic
	var sent uint64
	for k := 1; k < wire.KindCount; k++ {
		name := kindName(wire.Kind(k))
		m["simnet.sent_msgs."+name] = float64(traffic.SentMsgs[k])
		m["simnet.sent_bytes."+name] = float64(traffic.SentBytes[k])
		sent += traffic.SentMsgs[k]
	}
	m["simnet.random_drops"] = float64(traffic.RandomDrops)
	m["simnet.dead_drops"] = float64(traffic.DeadDrops)
	m["shaping.congestion_drops"] = float64(traffic.CongestionDrops)
	m["shaping.drop_ratio"] = ratio(int(traffic.CongestionDrops), int(traffic.CongestionDrops+sent))

	m["megasim.queue.cpu_pct"] = shares[profattr.Queue]
	m["megasim.cpu_pct"] = shares[profattr.Engine]
	m["core.cpu_pct"] = shares[profattr.Core]
	m["pss.cpu_pct"] = shares[profattr.PSS]
	m["shaping.cpu_pct"] = shares[profattr.Shaping]
	m["wire.cpu_pct"] = shares[profattr.Wire]
	m["stream.cpu_pct"] = shares[profattr.Stream]
	m["fec.cpu_pct"] = shares[profattr.FEC]
	m["trace.cpu_pct"] = shares[profattr.Trace]
	m["runtime.gc_cpu_pct"] = shares[profattr.GC]
	m["runtime.malloc.cpu_pct"] = shares[profattr.Malloc]
	m["runtime.heap_peak_mb"] = float64(peak) / (1 << 20)
	m["runtime.gc_cycles"] = float64(gcCycles)
	m["trace.attributed_pct"] = attributed
	m["trace.self_sum_err_pct"] = sumErr

	out.Problems = problems
	return out, nil
}

func kindName(k wire.Kind) string {
	return strings.ToLower(strings.ReplaceAll(k.String(), "-", ""))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampleHeap polls the heap's object bytes every 10 ms until the returned
// function is called, which stops the poller and returns the peak seen.
func sampleHeap() func() uint64 {
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		var peak uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, readUint("/memory/classes/heap/objects:bytes"))
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-done
	}
}
