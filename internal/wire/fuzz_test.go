package wire

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"gossipstream/internal/stream"
)

// allocSlack covers what a decode allocates regardless of input length:
// the message boxed into its interface and the packets slice header.
const allocSlack = 512

// allocPerByte bounds the heap a decoded datagram may cost per input byte.
// The densest case is a SERVE of empty payloads: each 6-byte packet
// header becomes a 48-byte stream.Packet plus an 8-byte slice slot.
const allocPerByte = 16

// decodeAllocBytes returns the heap bytes one Decode of data allocates. A
// measurement above limit is retried and the minimum kept, so an
// allocation made concurrently by the test framework cannot fail a check.
func decodeAllocBytes(c *Codec, data []byte, limit uint64) uint64 {
	var best uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.Decode(data)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < best {
			best = d
		}
		if best <= limit {
			break
		}
	}
	return best
}

// TestDecodeServeClaimedCountBounded pins the amplification bug: a 7-byte
// SERVE header claiming 65535 packets was rejected as truncated only after
// sizing a packet slice from the claim (512 KiB).
func TestDecodeServeClaimedCountBounded(t *testing.T) {
	c := NewCodec(testLayout())
	data := []byte{byte(KindServe), 0, 0, 0, 1, 0xff, 0xff}
	if _, _, err := c.Decode(data); !errors.Is(err, ErrTruncated) {
		t.Fatalf("error = %v, want ErrTruncated", err)
	}
	if raceEnabled {
		t.Skip("the race detector's bookkeeping distorts heap byte counts")
	}
	if got := decodeAllocBytes(c, data, allocSlack); got > allocSlack {
		t.Fatalf("decoding a 7-byte datagram allocated %d bytes, want <= %d", got, allocSlack)
	}
}

func TestDecodeRejectsOversizedPayload(t *testing.T) {
	l := testLayout()
	c := NewCodec(l)
	pkt := &stream.Packet{ID: 3, Payload: make([]byte, l.PayloadBytes+1)}
	buf, err := c.Encode(1, Serve{Packets: []*stream.Packet{pkt}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Decode(buf); !errors.Is(err, ErrOversizedPayload) {
		t.Fatalf("error = %v, want ErrOversizedPayload", err)
	}
	// A claim past the layout is rejected before the body is consulted.
	if _, _, err := c.Decode(buf[:headerBytes+packetHeaderBytes]); !errors.Is(err, ErrOversizedPayload) {
		t.Fatalf("truncated oversized claim: error = %v, want ErrOversizedPayload", err)
	}
}

// FuzzDecode feeds arbitrary datagrams to Decode. Beyond not panicking it
// checks that a decoded message re-encodes and decodes to itself, and that
// the heap a decode costs stays within a constant multiple of the
// datagram's length. The corpus in testdata/fuzz/FuzzDecode seeds one
// datagram of every kind plus the malformed shapes the checks guard.
func FuzzDecode(f *testing.F) {
	c := NewCodec(testLayout())
	for _, msg := range []Message{
		Propose{IDs: []stream.PacketID{1, 2, 3}},
		Request{IDs: []stream.PacketID{7}},
		Serve{Packets: []*stream.Packet{{ID: 5, Payload: []byte("payload")}, {ID: 6, Payload: []byte{}}}},
		FeedMe{},
		Leave{},
		Shuffle{Reply: true, Entries: []ShuffleEntry{{ID: 4, Age: 2}}},
	} {
		buf, err := c.Encode(9, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sender, msg, err := c.Decode(data)
		if !raceEnabled {
			limit := uint64(allocSlack + allocPerByte*len(data))
			if got := decodeAllocBytes(c, data, limit); got > limit {
				t.Fatalf("decoding %d bytes allocated %d, want <= %d", len(data), got, limit)
			}
		}
		if err != nil {
			return
		}
		// Datagrams past the MTU may decode to messages Encode refuses to
		// build; within it, every decoded message must round-trip.
		if len(data) > MTUBytes {
			return
		}
		buf, err := c.Encode(sender, msg)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", msg, err)
		}
		sender2, msg2, err := c.Decode(buf)
		if err != nil {
			t.Fatalf("re-encoded %#v does not decode: %v", msg, err)
		}
		if sender2 != sender || !reflect.DeepEqual(msg2, msg) {
			t.Fatalf("round trip changed the message:\n got %d %#v\nwant %d %#v", sender2, msg2, sender, msg)
		}
	})
}
