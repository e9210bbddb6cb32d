// Package state provides the crash-safe persistence primitives of the
// long-running monitoring control loop: versioned, CRC32-guarded
// snapshots overwritten in place in two alternating slots, and an
// append-only write-ahead journal whose torn tail is detected and
// truncated on recovery.
//
// The package is deliberately generic: it persists opaque payloads and
// knows nothing about controllers or collectors. The components that own
// state (control.Controller, loadtrack.Tracker, the serve daemon)
// marshal themselves with the Encoder/Decoder below, and the daemon
// composes the pieces into one snapshot payload. All encodings are
// little-endian with float64 values stored as IEEE-754 bit patterns, so
// a decode restores every number bit-exactly — the property the
// deterministic recovery guarantee rests on.
package state

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Encoder builds a binary payload. The zero value is ready to use; all
// integers are little-endian and floats are stored as their IEEE-754
// bits (bit-exact round trip, no text formatting involved).
type Encoder struct {
	buf []byte
}

// Data returns the encoded payload.
func (e *Encoder) Data() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends a signed 64-bit integer (two's-complement bits).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends the IEEE-754 bits of v.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// ErrCodec reports a payload that cannot be decoded: short, or with an
// impossible length prefix. Every Decoder failure wraps it.
var ErrCodec = errors.New("state: malformed payload")

// Decoder consumes a binary payload produced by Encoder. Errors are
// sticky: after the first failure every read returns the zero value, so
// a decode sequence can run to completion and check Err once.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps a payload for decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Finish returns an error unless the payload decoded cleanly and was
// consumed exactly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(d.b)-d.off)
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b)-d.off < n {
		d.err = fmt.Errorf("%w: want %d bytes, have %d", ErrCodec, n, len(d.b)-d.off)
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a signed 64-bit integer.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads an IEEE-754 float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bytes reads a length-prefixed byte slice (a copy-free subslice of the
// payload).
func (d *Decoder) Bytes() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if int(n) > d.Remaining() {
		d.err = fmt.Errorf("%w: byte field of %d exceeds %d remaining", ErrCodec, n, d.Remaining())
		return nil
	}
	return d.take(int(n))
}

// Len reads a length prefix and validates it against the bytes left,
// assuming each element occupies at least elemSize bytes — the guard
// that keeps a corrupted count from provoking a giant allocation.
func (d *Decoder) Len(elemSize int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if elemSize > 0 && int(n) > d.Remaining()/elemSize {
		d.err = fmt.Errorf("%w: count %d exceeds remaining payload", ErrCodec, n)
		return 0
	}
	return int(n)
}
