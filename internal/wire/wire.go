// Package wire defines the four message types of the paper's three-phase
// gossip protocol (Algorithm 1) — PROPOSE, REQUEST, SERVE plus the FEED-ME
// message of the proactiveness study (§3) — together with their exact
// on-the-wire sizes and a binary codec.
//
// Both network substrates consume this package: the discrete-event
// simulator charges uplinks by WireSize (without materializing bytes), and
// the real-time UDP transport encodes/decodes the same layouts, so the two
// agree byte-for-byte on bandwidth consumption.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"gossipstream/internal/stream"
)

// NodeID identifies a protocol participant. The simulator assigns dense ids
// in join order; the real-time transport carries them in the message header.
type NodeID int32

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds. Values are part of the wire format.
const (
	KindPropose Kind = iota + 1
	KindRequest
	KindServe
	KindFeedMe
	// KindShuffle carries Cyclon-style view exchanges for the optional
	// partial-view membership substrate (internal/pss); it is not part of
	// the paper's protocol, which assumes full membership.
	KindShuffle
	// KindLeave announces a graceful departure: receivers shed the
	// sender's descriptor from their partial views immediately instead of
	// waiting for it to age out. Like KindShuffle it belongs to the
	// membership substrate, not the paper's protocol.
	KindLeave
)

// KindCount is one past the largest Kind, for counter arrays indexed by
// kind.
const KindCount = int(KindLeave) + 1

// String returns the paper's name for the message kind.
func (k Kind) String() string {
	switch k {
	case KindPropose:
		return "PROPOSE"
	case KindRequest:
		return "REQUEST"
	case KindServe:
		return "SERVE"
	case KindFeedMe:
		return "FEED-ME"
	case KindShuffle:
		return "SHUFFLE"
	case KindLeave:
		return "LEAVE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

const (
	// UDPOverheadBytes is charged per datagram: 20 bytes IPv4 + 8 bytes UDP.
	UDPOverheadBytes = 28
	// headerBytes is the protocol header: kind (1) + sender id (4) +
	// element count (2).
	headerBytes = 7
	// idBytes is the encoded size of one packet id.
	idBytes = 4
	// packetHeaderBytes prefixes each packet in a SERVE: id (4) +
	// payload length (2).
	packetHeaderBytes = 6
	// MTUBytes bounds a datagram's payload; SERVE batches split to fit.
	MTUBytes = 1472
)

// MaxIDsPerMessage is the largest id list that keeps PROPOSE/REQUEST within
// MTUBytes.
const MaxIDsPerMessage = (MTUBytes - headerBytes) / idBytes

// Message is implemented by the four protocol messages.
type Message interface {
	Kind() Kind
	// WireSize returns the total bytes this message costs on the wire,
	// including UDP/IP overhead.
	WireSize() int
}

// Propose advertises event ids the sender can serve (phase 1).
type Propose struct {
	IDs []stream.PacketID
}

// Kind implements Message.
func (Propose) Kind() Kind { return KindPropose }

// WireSize implements Message.
func (p Propose) WireSize() int {
	return UDPOverheadBytes + headerBytes + idBytes*len(p.IDs)
}

// Request pulls needed events from a proposer (phase 2).
type Request struct {
	IDs []stream.PacketID
}

// Kind implements Message.
func (Request) Kind() Kind { return KindRequest }

// WireSize implements Message.
func (r Request) WireSize() int {
	return UDPOverheadBytes + headerBytes + idBytes*len(r.IDs)
}

// Serve carries the actual packets (phase 3).
type Serve struct {
	Packets []*stream.Packet
}

// Kind implements Message.
func (Serve) Kind() Kind { return KindServe }

// WireSize implements Message.
func (s Serve) WireSize() int {
	n := UDPOverheadBytes + headerBytes
	for _, p := range s.Packets {
		n += packetHeaderBytes + len(p.Payload)
	}
	return n
}

// FeedMe asks the receiver to insert the sender into its partner view
// (proactiveness knob Y, paper §3).
type FeedMe struct{}

// Kind implements Message.
func (FeedMe) Kind() Kind { return KindFeedMe }

// WireSize implements Message.
func (FeedMe) WireSize() int { return UDPOverheadBytes + headerBytes }

// ShuffleEntry is one node descriptor in a view exchange: the node id and
// the descriptor's age in shuffle rounds.
type ShuffleEntry struct {
	ID  NodeID
	Age uint16
}

// shuffleEntryBytes is the encoded size of one ShuffleEntry.
const shuffleEntryBytes = 6

// Shuffle is a Cyclon view exchange: a request carries a sample of the
// sender's view (including a fresh self-descriptor); the reply carries a
// sample of the receiver's.
type Shuffle struct {
	Reply   bool
	Entries []ShuffleEntry
}

// Kind implements Message.
func (Shuffle) Kind() Kind { return KindShuffle }

// WireSize implements Message.
func (s Shuffle) WireSize() int {
	return UDPOverheadBytes + headerBytes + 1 + shuffleEntryBytes*len(s.Entries)
}

// Leave announces the sender's graceful departure to a view partner. The
// sender id in the header is the departing node; the message body is
// empty.
type Leave struct{}

// Kind implements Message.
func (Leave) Kind() Kind { return KindLeave }

// WireSize implements Message.
func (Leave) WireSize() int { return UDPOverheadBytes + headerBytes }

// Verify interface compliance at compile time.
var (
	_ Message = Propose{}
	_ Message = Request{}
	_ Message = Serve{}
	_ Message = FeedMe{}
	_ Message = Shuffle{}
	_ Message = Leave{}
)

// ErrTruncated is returned when a datagram is shorter than its declared
// contents.
var ErrTruncated = errors.New("wire: truncated message")

// ErrOversizedPayload is returned when a SERVE claims a packet payload
// longer than the stream layout's PayloadBytes.
var ErrOversizedPayload = errors.New("wire: packet payload exceeds the layout's PayloadBytes")

// Codec encodes and decodes messages for the real-time transport. A Codec
// needs the stream layout to rebuild packet metadata (window, index,
// parity) from ids, which are not carried redundantly on the wire.
type Codec struct {
	layout stream.Layout
}

// NewCodec returns a codec for streams with the given layout.
func NewCodec(layout stream.Layout) *Codec { return &Codec{layout: layout} }

// Encode serializes msg from sender into a fresh buffer (without UDP/IP
// overhead, which the kernel adds). The result length is always
// msg.WireSize() - UDPOverheadBytes.
func (c *Codec) Encode(sender uint32, msg Message) ([]byte, error) {
	var ids []stream.PacketID
	switch m := msg.(type) {
	case Propose:
		ids = m.IDs
	case Request:
		ids = m.IDs
	case Serve:
		return c.encodeServe(sender, m)
	case FeedMe:
		buf := make([]byte, headerBytes)
		putHeader(buf, KindFeedMe, sender, 0)
		return buf, nil
	case Leave:
		buf := make([]byte, headerBytes)
		putHeader(buf, KindLeave, sender, 0)
		return buf, nil
	case Shuffle:
		return encodeShuffle(sender, m)
	default:
		return nil, fmt.Errorf("wire: cannot encode %T", msg)
	}
	if len(ids) > MaxIDsPerMessage {
		return nil, fmt.Errorf("wire: %d ids exceed MaxIDsPerMessage %d", len(ids), MaxIDsPerMessage)
	}
	buf := make([]byte, headerBytes+idBytes*len(ids))
	putHeader(buf, msg.Kind(), sender, uint16(len(ids)))
	off := headerBytes
	for _, id := range ids {
		binary.BigEndian.PutUint32(buf[off:], uint32(id))
		off += idBytes
	}
	return buf, nil
}

func (c *Codec) encodeServe(sender uint32, m Serve) ([]byte, error) {
	size := headerBytes
	for _, p := range m.Packets {
		size += packetHeaderBytes + len(p.Payload)
	}
	if size > MTUBytes {
		return nil, fmt.Errorf("wire: SERVE of %d bytes exceeds MTU %d", size, MTUBytes)
	}
	buf := make([]byte, size)
	putHeader(buf, KindServe, sender, uint16(len(m.Packets)))
	off := headerBytes
	for _, p := range m.Packets {
		binary.BigEndian.PutUint32(buf[off:], uint32(p.ID))
		binary.BigEndian.PutUint16(buf[off+4:], uint16(len(p.Payload)))
		off += packetHeaderBytes
		copy(buf[off:], p.Payload)
		off += len(p.Payload)
	}
	return buf, nil
}

// Decode parses a datagram produced by Encode, returning the sender id and
// the message. Datagrams are untrusted: declared counts and lengths are
// checked against the bytes actually present before anything is sized
// from them, so what Decode allocates stays within a constant multiple of
// len(data).
func (c *Codec) Decode(data []byte) (sender uint32, msg Message, err error) {
	if len(data) < headerBytes {
		return 0, nil, ErrTruncated
	}
	kind := Kind(data[0])
	sender = binary.BigEndian.Uint32(data[1:5])
	count := int(binary.BigEndian.Uint16(data[5:7]))
	body := data[headerBytes:]
	switch kind {
	case KindPropose, KindRequest:
		if len(body) < count*idBytes {
			return 0, nil, ErrTruncated
		}
		ids := make([]stream.PacketID, count)
		for i := 0; i < count; i++ {
			ids[i] = stream.PacketID(binary.BigEndian.Uint32(body[i*idBytes:]))
		}
		if kind == KindPropose {
			return sender, Propose{IDs: ids}, nil
		}
		return sender, Request{IDs: ids}, nil
	case KindServe:
		// Every packet costs at least its header, so the body bounds how
		// many of the claimed count can really follow.
		packets := make([]*stream.Packet, 0, min(count, len(body)/packetHeaderBytes))
		off := 0
		for i := 0; i < count; i++ {
			if len(body) < off+packetHeaderBytes {
				return 0, nil, ErrTruncated
			}
			id := stream.PacketID(binary.BigEndian.Uint32(body[off:]))
			plen := int(binary.BigEndian.Uint16(body[off+4:]))
			off += packetHeaderBytes
			if plen > c.layout.PayloadBytes {
				return 0, nil, ErrOversizedPayload
			}
			if len(body) < off+plen {
				return 0, nil, ErrTruncated
			}
			payload := make([]byte, plen)
			copy(payload, body[off:off+plen])
			off += plen
			packets = append(packets, &stream.Packet{
				ID:      id,
				Window:  uint32(c.layout.WindowOf(id)),
				Index:   uint16(c.layout.IndexOf(id)),
				Parity:  c.layout.IsParity(id),
				Payload: payload,
			})
		}
		return sender, Serve{Packets: packets}, nil
	case KindFeedMe:
		return sender, FeedMe{}, nil
	case KindLeave:
		return sender, Leave{}, nil
	case KindShuffle:
		if len(body) < 1+count*shuffleEntryBytes {
			return 0, nil, ErrTruncated
		}
		msg := Shuffle{Reply: body[0] == 1}
		msg.Entries = make([]ShuffleEntry, count)
		for i := 0; i < count; i++ {
			off := 1 + i*shuffleEntryBytes
			msg.Entries[i] = ShuffleEntry{
				ID:  NodeID(binary.BigEndian.Uint32(body[off:])),
				Age: binary.BigEndian.Uint16(body[off+4:]),
			}
		}
		return sender, msg, nil
	default:
		return 0, nil, fmt.Errorf("wire: unknown message kind %d", data[0])
	}
}

func encodeShuffle(sender uint32, m Shuffle) ([]byte, error) {
	size := headerBytes + 1 + shuffleEntryBytes*len(m.Entries)
	if size > MTUBytes {
		return nil, fmt.Errorf("wire: SHUFFLE of %d bytes exceeds MTU %d", size, MTUBytes)
	}
	buf := make([]byte, size)
	putHeader(buf, KindShuffle, sender, uint16(len(m.Entries)))
	if m.Reply {
		buf[headerBytes] = 1
	}
	for i, e := range m.Entries {
		off := headerBytes + 1 + i*shuffleEntryBytes
		binary.BigEndian.PutUint32(buf[off:], uint32(e.ID))
		binary.BigEndian.PutUint16(buf[off+4:], e.Age)
	}
	return buf, nil
}

func putHeader(buf []byte, kind Kind, sender uint32, count uint16) {
	buf[0] = byte(kind)
	binary.BigEndian.PutUint32(buf[1:5], sender)
	binary.BigEndian.PutUint16(buf[5:7], count)
}

// SplitIDs partitions ids into chunks no larger than MaxIDsPerMessage, for
// senders whose id lists exceed one MTU.
func SplitIDs(ids []stream.PacketID) [][]stream.PacketID {
	if len(ids) <= MaxIDsPerMessage {
		return [][]stream.PacketID{ids}
	}
	var out [][]stream.PacketID
	for len(ids) > 0 {
		n := len(ids)
		if n > MaxIDsPerMessage {
			n = MaxIDsPerMessage
		}
		out = append(out, ids[:n])
		ids = ids[n:]
	}
	return out
}

// maxPacketsPerServe bounds the packets one SERVE can carry: the split
// never exceeds the MTU for multi-packet messages, and each packet costs
// at least packetHeaderBytes, so the bound is exact when payloads are
// empty. Oversized single-packet messages hold one packet and also fit.
const maxPacketsPerServe = (MTUBytes - headerBytes) / packetHeaderBytes

// servePool recycles per-message Packets backings. The fixed array size
// means RecycleServe can recover the array pointer from the slice alone
// (no wrapper to thread through Serve), and pointers box into the pool's
// interface without allocating.
var servePool = sync.Pool{
	New: func() any { return new([maxPacketsPerServe]*stream.Packet) },
}

// SplitServeInto partitions packets into SERVE messages appended to dst,
// each fitting within the MTU. A single oversized packet still yields its
// own message (the transport will fragment); with the paper's 1250-byte
// payloads this never happens.
//
// Each message's Packets backing comes from an internal pool — simulations
// at 100k+ nodes create millions of SERVEs and the per-batch slices were
// the largest remaining allocation site. Ownership of the backing travels
// with the message: whoever consumes a Serve last calls RecycleServe once
// the slice (not the packets — those are never pooled) is unreferenced.
// Callers that cannot track consumption simply never recycle and the
// backings fall to the garbage collector, which is the pre-pool behavior.
func SplitServeInto(dst []Serve, packets []*stream.Packet) []Serve {
	if len(packets) == 0 {
		return dst
	}
	arr := servePool.Get().(*[maxPacketsPerServe]*stream.Packet)
	batch := arr[:0]
	size := headerBytes
	for _, p := range packets {
		psize := packetHeaderBytes + len(p.Payload)
		if len(batch) > 0 && size+psize > MTUBytes {
			//lint:pooled dst is the caller's reusable batch scratch
			dst = append(dst, Serve{Packets: batch})
			arr = servePool.Get().(*[maxPacketsPerServe]*stream.Packet)
			batch = arr[:0]
			size = headerBytes
		}
		//lint:pooled batch is a pooled fixed-capacity backing; the MTU split bounds len at maxPacketsPerServe
		batch = append(batch, p)
		size += psize
	}
	//lint:pooled dst is the caller's reusable batch scratch
	return append(dst, Serve{Packets: batch})
}

// SplitServe is SplitServeInto without a reusable destination, for callers
// that split rarely enough not to care.
func SplitServe(packets []*stream.Packet) []Serve {
	return SplitServeInto(nil, packets)
}

// RecycleServe returns s's Packets backing to the pool. Only messages
// produced by SplitServeInto are recycled (recognized by the pool's fixed
// backing capacity); anything else is ignored, so drop paths can recycle
// unconditionally. The packets themselves are untouched — retaining
// *stream.Packet pointers past the recycle is fine, retaining the slice
// is not.
func RecycleServe(s Serve) {
	if cap(s.Packets) != maxPacketsPerServe {
		return
	}
	arr := (*[maxPacketsPerServe]*stream.Packet)(s.Packets[:maxPacketsPerServe])
	clear(arr[:]) // drop packet references so pooled capacity does not pin payloads
	servePool.Put(arr)
}
