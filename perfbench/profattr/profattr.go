// Package profattr attributes the samples of a Go CPU profile to the
// simulator's layers by function name. Layers without a call boundary
// reachable from outside — the per-shard scheduler, the uplink shaper,
// wire batch handling, the stream and FEC kernels, malloc and GC — get
// their share this way. It reads the profile's protobuf encoding itself
// and needs only the standard library.
package profattr

import "strings"

// Layer names, as the per-layer metrics spell them.
const (
	Queue      = "megasim.queue"
	Engine     = "megasim"
	Shaping    = "shaping"
	Core       = "core"
	PSS        = "pss"
	Wire       = "wire"
	Stream     = "stream"
	FEC        = "fec"
	Experiment = "experiment"
	Trace      = "trace"
	GC         = "runtime.gc"
	Malloc     = "runtime.malloc"
	Sched      = "runtime.sched"
	// Unattributed collects samples no rule names.
	Unattributed = "unattributed"
)

// Layers lists every layer a sample can be attributed to, Unattributed
// last.
var Layers = []string{Queue, Engine, Shaping, Core, PSS, Wire, Stream, FEC, Experiment, Trace, GC, Malloc, Sched, Unattributed}

const mod = "gossipstream/internal/"

// packageRules map a function-name prefix to its layer. The first match
// wins, so the scheduler's types come before the rest of megasim.
var packageRules = []struct{ prefix, layer string }{
	{mod + "megasim.(*heapQueue)", Queue},
	{mod + "megasim.(*calendarQueue)", Queue},
	{mod + "megasim.(*calBucket)", Queue},
	{mod + "megasim.evSift", Queue},
	{mod + "megasim.evLess", Queue},
	{mod + "megasim.", Engine},
	{mod + "simnet.", Engine},
	{mod + "shaping.", Shaping},
	{mod + "core.", Core},
	{mod + "pss.", PSS},
	{mod + "member.", PSS},
	{mod + "wire.", Wire},
	{mod + "stream.", Stream},
	{mod + "fec.", FEC},
	{mod + "gf256.", FEC},
	{mod + "experiment.", Experiment},
	{mod + "metrics.", Experiment},
	{mod + "telemetry.", Experiment},
	{mod + "churn.", Experiment},
	{"gossipstream/perfbench/", Trace},
	{"runtime/pprof.", Trace},
	{"gossipstream.", Experiment},
}

// isGC reports whether fn is garbage-collector work: background and
// assist marking, sweeping, scavenging and write barriers.
func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.wbBufFlush", "runtime.wbBufFlush1":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// isMalloc reports whether fn is a heap-allocation entry point.
func isMalloc(fn string) bool {
	switch fn {
	case "runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.makemap_small", "runtime.rawstring",
		"runtime.rawbyteslice", "runtime.mallocgcSmallNoscan", "runtime.mallocgcSmallScanNoHeader",
		"runtime.mallocgcSmallScanHeader", "runtime.mallocgcLarge", "runtime.mallocgcTiny":
		return true
	}
	return false
}

// isSched reports whether fn is goroutine scheduling or parking, where
// shard workers wait at window barriers.
func isSched(fn string) bool {
	switch fn {
	case "runtime.mcall", "runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.sysmon", "runtime.mstart",
		"runtime.notesleep", "runtime.futexsleep", "runtime.futexwakeup", "runtime.wakep",
		"runtime.morestack", "runtime.newstack", "runtime.goexit0", "runtime.semacquire1",
		"runtime.semrelease1", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo":
		return true
	}
	return false
}

// layerOf maps one function name to its layer by package; ok is false for
// functions that are transparent (the runtime, the standard library,
// xrand), whose cost belongs to their caller.
func layerOf(fn string) (layer string, ok bool) {
	for _, r := range packageRules {
		if strings.HasPrefix(fn, r.prefix) {
			return r.layer, true
		}
	}
	return "", false
}

// Classify attributes one sample, given its stack as function names from
// the leaf outwards. Garbage collection anywhere on the stack wins, then
// heap allocation; otherwise the innermost function with a layer names
// it. A stack of only transparent functions is scheduling if it passes
// through the scheduler, and unattributed if not.
func Classify(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return GC
		}
	}
	for _, fn := range stack {
		if isMalloc(fn) {
			return Malloc
		}
	}
	for _, fn := range stack {
		if layer, ok := layerOf(fn); ok {
			return layer
		}
	}
	for _, fn := range stack {
		if isSched(fn) {
			return Sched
		}
	}
	return Unattributed
}

// Shares attributes every sample of a CPU profile and returns each
// layer's share of the samples in percent, and the sample count.
func Shares(p *Profile) (map[string]float64, int64) {
	counts := make(map[string]int64, len(Layers))
	var total int64
	for _, s := range p.Samples {
		counts[Classify(s.Stack)] += s.Count
		total += s.Count
	}
	out := make(map[string]float64, len(Layers))
	for _, l := range Layers {
		if total > 0 {
			out[l] = 100 * float64(counts[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out, total
}
