// Package packet provides the flow-level primitives the NetFlow
// substrate is built on: IPv4 endpoints, the classic 5-tuple flow key
// with a fast non-cryptographic hash, and a compact fixed-size binary
// flow-record codec with allocation-free encode and decode (the
// DecodingLayer idiom: decode into preallocated structs, never allocate
// on the hot path).
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// AddrFrom4 builds an Addr from four octets a.b.c.d.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(a)<<24 | Addr(b)<<16 | Addr(c)<<8 | Addr(d)
}

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Protocol numbers used by the generators and tests.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// FiveTuple is the classic flow key: addresses, ports and protocol.
// It is comparable and usable as a map key.
type FiveTuple struct {
	Src, Dst         Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

// String renders the tuple as "proto src:sport->dst:dport".
func (t FiveTuple) String() string {
	return fmt.Sprintf("%d %s:%d->%s:%d", t.Proto, t.Src, t.SrcPort, t.Dst, t.DstPort)
}

// Less is a total order on flow keys (src, dst, ports, proto) — the
// tie-breaker deterministic flow-table sweeps sort by, so record
// emission order never inherits Go's randomized map iteration.
func (t FiveTuple) Less(o FiveTuple) bool {
	if t.Src != o.Src {
		return t.Src < o.Src
	}
	if t.Dst != o.Dst {
		return t.Dst < o.Dst
	}
	if t.SrcPort != o.SrcPort {
		return t.SrcPort < o.SrcPort
	}
	if t.DstPort != o.DstPort {
		return t.DstPort < o.DstPort
	}
	return t.Proto < o.Proto
}

// FastHash returns a 64-bit FNV-1a hash of the tuple, suitable for
// sharding flows across workers. It is not symmetric: the two
// directions of a flow hash differently.
//
//netsamp:noalloc
func (t FiveTuple) FastHash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64, bytes int) { //netsamp:alloc-ok non-escaping closure over a stack local; inlined, no heap
		for i := 0; i < bytes; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(t.Src), 4)
	mix(uint64(t.Dst), 4)
	mix(uint64(t.SrcPort), 2)
	mix(uint64(t.DstPort), 2)
	mix(uint64(t.Proto), 1)
	return h
}

// RecordSize is the wire size of an encoded Record.
const RecordSize = 40

// recordVersion is the codec version stamped into every record.
const recordVersion = 1

// Record is one exported flow record: the key, the sampled packet and
// byte counts, and the observation window, plus the ID of the exporting
// monitor (link). The wire layout is fixed little-endian, 40 bytes:
//
//	0  version(1) proto(1) monitorID(2)
//	4  src(4) dst(4)
//	12 srcPort(2) dstPort(2)
//	16 packets(8) bytes(8)
//	32 start(4) end(4)    — seconds since the epoch of the trace
type Record struct {
	Key       FiveTuple
	MonitorID uint16
	Packets   uint64
	Bytes     uint64
	Start     uint32
	End       uint32
}

// Errors returned by the codec.
var (
	ErrShortBuffer = errors.New("packet: buffer too short for record")
	ErrBadVersion  = errors.New("packet: unknown record version")
)

// AppendTo appends the wire encoding of r to b and returns the extended
// slice. It performs no allocation when b has spare capacity.
func (r *Record) AppendTo(b []byte) []byte {
	var buf [RecordSize]byte
	buf[0] = recordVersion
	buf[1] = r.Key.Proto
	binary.LittleEndian.PutUint16(buf[2:], r.MonitorID)
	binary.LittleEndian.PutUint32(buf[4:], uint32(r.Key.Src))
	binary.LittleEndian.PutUint32(buf[8:], uint32(r.Key.Dst))
	binary.LittleEndian.PutUint16(buf[12:], r.Key.SrcPort)
	binary.LittleEndian.PutUint16(buf[14:], r.Key.DstPort)
	binary.LittleEndian.PutUint64(buf[16:], r.Packets)
	binary.LittleEndian.PutUint64(buf[24:], r.Bytes)
	binary.LittleEndian.PutUint32(buf[32:], r.Start)
	binary.LittleEndian.PutUint32(buf[36:], r.End)
	return append(b, buf[:]...)
}

// DecodeFromBytes parses one record from the front of b into r without
// allocating. It returns ErrShortBuffer if b holds fewer than RecordSize
// bytes and ErrBadVersion on a version mismatch.
//
//netsamp:noalloc
func (r *Record) DecodeFromBytes(b []byte) error {
	if len(b) < RecordSize {
		return ErrShortBuffer
	}
	if b[0] != recordVersion {
		return ErrBadVersion
	}
	r.Key.Proto = b[1]
	r.MonitorID = binary.LittleEndian.Uint16(b[2:])
	r.Key.Src = Addr(binary.LittleEndian.Uint32(b[4:]))
	r.Key.Dst = Addr(binary.LittleEndian.Uint32(b[8:]))
	r.Key.SrcPort = binary.LittleEndian.Uint16(b[12:])
	r.Key.DstPort = binary.LittleEndian.Uint16(b[14:])
	r.Packets = binary.LittleEndian.Uint64(b[16:])
	r.Bytes = binary.LittleEndian.Uint64(b[24:])
	r.Start = binary.LittleEndian.Uint32(b[32:])
	r.End = binary.LittleEndian.Uint32(b[36:])
	return nil
}

// HeaderSize is the wire size of a datagram header.
const HeaderSize = 16

// Header prefixes every export datagram: a magic, the codec version, the
// record count, a per-exporter sequence number for loss detection (the
// NetFlow v5 idiom) and the exporter identifier.
//
//	0 magic(2) version(1) count(1)
//	4 seq(4)
//	8 exporter(4)
//	12 reserved(4)
type Header struct {
	Count    uint8
	Seq      uint32
	Exporter uint32
}

// headerMagic identifies netsamp export datagrams.
const headerMagic = 0x4e53 // "NS"

// ErrBadMagic is returned when a datagram does not start with the
// netsamp magic.
var ErrBadMagic = errors.New("packet: bad datagram magic")

// AppendTo appends the wire encoding of h to b.
func (h *Header) AppendTo(b []byte) []byte {
	var buf [HeaderSize]byte
	binary.LittleEndian.PutUint16(buf[0:], headerMagic)
	buf[2] = recordVersion
	buf[3] = h.Count
	binary.LittleEndian.PutUint32(buf[4:], h.Seq)
	binary.LittleEndian.PutUint32(buf[8:], h.Exporter)
	return append(b, buf[:]...)
}

// DecodeFromBytes parses a header from the front of b.
func (h *Header) DecodeFromBytes(b []byte) error {
	if len(b) < HeaderSize {
		return ErrShortBuffer
	}
	if binary.LittleEndian.Uint16(b[0:]) != headerMagic {
		return ErrBadMagic
	}
	if b[2] != recordVersion {
		return ErrBadVersion
	}
	h.Count = b[3]
	h.Seq = binary.LittleEndian.Uint32(b[4:])
	h.Exporter = binary.LittleEndian.Uint32(b[8:])
	return nil
}
