// Package trace is the benchmark's traced runner. It rebuilds a workload's
// deployment from the layers' own constructors, wraps the boundaries the
// engine calls through (megasim.Handler into core, core.Env into the
// engine and its timers, member.DynamicSampler into pss) and records a
// span at each call. It imports internal packages on purpose and lives
// apart from the untraced runner: a refactor that retypes one of these
// interfaces can break the trace, never the numbers that gate changes.
package trace

import "time"

// span names one kind of traced call.
type span uint8

const (
	spBuild span = iota
	spAdmit
	spDepart
	spScore
	spSend
	spPropose
	spRequest
	spServe
	spFeedMe
	spTimer
	spPSSTick
	spPSSHandle
	spSample
	numSpans
)

// spanNames are the per-layer metric prefixes of each span kind.
var spanNames = [numSpans]string{
	spBuild:     "experiment.build",
	spAdmit:     "experiment.admit",
	spDepart:    "experiment.depart",
	spScore:     "experiment.score",
	spSend:      "megasim.send",
	spPropose:   "core.propose",
	spRequest:   "core.request",
	spServe:     "core.serve",
	spFeedMe:    "core.feedme",
	spTimer:     "core.timer",
	spPSSTick:   "pss.tick",
	spPSSHandle: "pss.handle",
	spSample:    "member.sample",
}

// frame is one open span: its kind, start, and the total duration of the
// child spans closed inside it so far.
type frame struct {
	kind  span
	start int64
	child int64
}

// lane is the span stack of one goroutine that runs node code: a shard
// worker, or the supervisor. Spans on one lane nest strictly.
type lane struct {
	stack []frame
	self  [numSpans]int64
	calls [numSpans]uint64
	// root is the total duration of spans closed with an empty stack.
	root  int64
	armed uint64 // Env.After calls
	_     [64]byte
}

// Tracer records spans on one lane per shard plus one for the supervisor.
// A span's self time is its duration minus its child spans'.
type Tracer struct {
	lanes []*lane
	// super routes every span to the supervisor lane. It is set outside
	// Engine.Run and inside barrier callbacks, when the shards are
	// quiescent and node code runs on the supervisor goroutine.
	super bool
	epoch time.Time
}

func newTracer(shards int) *Tracer {
	t := &Tracer{lanes: make([]*lane, shards+1), super: true, epoch: time.Now()}
	for i := range t.lanes {
		t.lanes[i] = &lane{stack: make([]frame, 0, 16)}
	}
	return t
}

// now reads the monotonic clock in nanoseconds since the tracer began.
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *Tracer) supervisor() *lane { return t.lanes[len(t.lanes)-1] }

// laneFor returns the lane node code of the given shard runs on now.
func (t *Tracer) laneFor(shard int) *lane {
	if t.super {
		return t.supervisor()
	}
	return t.lanes[shard]
}

func (t *Tracer) enter(l *lane, kind span) {
	l.stack = append(l.stack, frame{kind: kind, start: t.now()})
}

func (t *Tracer) exit(l *lane) {
	end := t.now()
	top := len(l.stack) - 1
	f := l.stack[top]
	l.stack = l.stack[:top]
	d := end - f.start
	l.self[f.kind] += d - f.child
	l.calls[f.kind]++
	if top == 0 {
		l.root += d
	} else {
		l.stack[top-1].child += d
	}
}

// totals sums self times and call counts over every lane.
func (t *Tracer) totals() (self [numSpans]int64, calls [numSpans]uint64, armed uint64) {
	for _, l := range t.lanes {
		for k := range self {
			self[k] += l.self[k]
			calls[k] += l.calls[k]
		}
		armed += l.armed
	}
	return
}

// balanced reports whether every span opened was closed.
func (t *Tracer) balanced() bool {
	for _, l := range t.lanes {
		if len(l.stack) != 0 {
			return false
		}
	}
	return true
}
