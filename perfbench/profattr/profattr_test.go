package profattr

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"testing"
)

func TestClassify(t *testing.T) {
	const m = "gossipstream/internal/"
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{m + "megasim.evSiftDown", m + "megasim.(*heapQueue).pop", m + "megasim.(*shard).runWindow"}, Queue},
		{[]string{m + "megasim.(*calendarQueue).locateMin", m + "megasim.(*calendarQueue).pop"}, Queue},
		{[]string{m + "megasim.(*calBucket).sort", m + "megasim.(*calendarQueue).push"}, Queue},
		{[]string{m + "megasim.(*Engine).deliver", m + "megasim.(*shard).runWindow"}, Engine},
		{[]string{m + "simnet.PairFactor", m + "megasim.(*Engine).pairLatency"}, Engine},
		{[]string{m + "shaping.(*Shaper).Enqueue", m + "megasim.(*Engine).send"}, Shaping},
		{[]string{m + "core.(*Peer).handlePropose", m + "core.(*Peer).HandleMessage"}, Core},
		{[]string{m + "core.(*Peer).armRetTimer.func1", m + "megasim.(*shard).runWindow"}, Core},
		{[]string{"runtime.mapassign_fast64", m + "core.(*Peer).armRetTimer"}, Core},
		{[]string{m + "pss.(*State).Tick", m + "megasim.(*Engine).memberTick"}, PSS},
		{[]string{m + "xrand.(*SplitMix64).Uint64", m + "member.(*SparseView).Sample", m + "core.(*Peer).tick"}, PSS},
		{[]string{"runtime.memclrNoHeapPointers", "sync.(*Pool).Put", m + "wire.RecycleServe", m + "megasim.recycleMsg"}, Wire},
		{[]string{m + "stream.(*Receiver).Deliver", m + "core.(*Peer).handleServe"}, Stream},
		{[]string{m + "gf256.mulAddAVX2", m + "fec.(*Encoder).Encode", m + "stream.(*Source).Packet"}, FEC},
		{[]string{m + "metrics.Evaluate", m + "experiment.(*deployment).nodeResult"}, Experiment},
		{[]string{"gossipstream.RunExperiment", "main.measure"}, Experiment},
		{[]string{"time.now", "gossipstream/perfbench/trace.(*Tracer).enter", m + "megasim.(*shard).runWindow"}, Trace},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof.profileWriter"}, Trace},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, GC},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", m + "core.(*Peer).tick"}, GC},
		{[]string{"runtime.wbBufFlush1", "runtime.wbBufFlush", m + "core.(*Peer).tick"}, GC},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", m + "core.(*Peer).tick"}, Malloc},
		{[]string{"runtime.memmove", "runtime.growslice", m + "wire.SplitServeInto"}, Malloc},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, Sched},
		{[]string{"runtime.usleep", "runtime.sysmon", "runtime.mstart1"}, Sched},
		{[]string{"runtime.memmove", "main.main"}, Unattributed},
		{nil, Unattributed},
	}
	for _, c := range cases {
		if got := Classify(c.stack); got != c.want {
			t.Errorf("Classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestShares(t *testing.T) {
	p := &Profile{Samples: []Sample{
		{Stack: []string{"gossipstream/internal/core.(*Peer).tick"}, Count: 3},
		{Stack: []string{"runtime.gcDrain"}, Count: 1},
		{Stack: []string{"main.main"}, Count: 4},
	}}
	shares, n := Shares(p)
	if n != 8 {
		t.Fatalf("samples = %d, want 8", n)
	}
	want := map[string]float64{Core: 37.5, GC: 12.5, Unattributed: 50}
	sum := 0.0
	for _, l := range Layers {
		sum += shares[l]
		if shares[l] != want[l] {
			t.Errorf("share of %s = %v, want %v", l, shares[l], want[l])
		}
	}
	if sum != 100 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(field int, v uint64) {
	b.uvarint(uint64(field)<<3 | 0)
	b.uvarint(v)
}

func (b *pb) bytesField(field int, p []byte) {
	b.uvarint(uint64(field)<<3 | 2)
	b.uvarint(uint64(len(p)))
	b.Write(p)
}

func (b *pb) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func packed(vs ...uint64) []byte {
	var b pb
	for _, v := range vs {
		b.uvarint(v)
	}
	return b.Bytes()
}

func msg(build func(*pb)) []byte {
	var b pb
	build(&b)
	return b.Bytes()
}

// TestParse decodes a hand-built profile with an inlined frame and both
// packed and unpacked location lists, as runtime/pprof writes them.
func TestParse(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "leaf", "inlinedCaller", "root"}
	var prof pb
	prof.bytesField(1, msg(func(b *pb) { b.varint(1, 1); b.varint(2, 2) }))
	prof.bytesField(1, msg(func(b *pb) { b.varint(1, 3); b.varint(2, 4) }))
	// Sample 1: packed locations [1 2 1], values [5, 5e7].
	prof.bytesField(2, msg(func(b *pb) {
		b.bytesField(1, packed(1, 2, 1))
		b.bytesField(2, packed(5, 50_000_000))
	}))
	// Sample 2: unpacked location 2, unpacked values.
	prof.bytesField(2, msg(func(b *pb) {
		b.varint(1, 2)
		b.varint(2, 7)
		b.varint(2, 70_000_000)
	}))
	// Location 1 holds leaf inlined into inlinedCaller; location 2 is root.
	prof.bytesField(4, msg(func(b *pb) {
		b.varint(1, 1)
		b.bytesField(4, msg(func(l *pb) { l.varint(1, 10); l.varint(2, 3) }))
		b.bytesField(4, msg(func(l *pb) { l.varint(1, 11); l.varint(2, 9) }))
	}))
	prof.bytesField(4, msg(func(b *pb) {
		b.varint(1, 2)
		b.bytesField(4, msg(func(l *pb) { l.varint(1, 12) }))
	}))
	for id, name := range map[uint64]uint64{10: 5, 11: 6, 12: 7} {
		prof.bytesField(5, msg(func(b *pb) { b.varint(1, id); b.varint(2, name) }))
	}
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	p, err := Parse(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []Sample{
		{Stack: []string{"leaf", "inlinedCaller", "root", "leaf", "inlinedCaller"}, Count: 5},
		{Stack: []string{"root"}, Count: 7},
	}
	if !reflect.DeepEqual(p.Samples, want) {
		t.Errorf("Parse = %+v, want %+v", p.Samples, want)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("not a profile")); err == nil {
		t.Error("Parse accepted a non-gzip input")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x80}) // sample field with a truncated length
	zw.Close()
	if _, err := Parse(gz.Bytes()); err == nil {
		t.Error("Parse accepted a truncated message")
	}
}
