// Package codecpair is golden-test input: each // want comment marks an
// expected finding on its line. The Encoder/Decoder below reproduce the
// shape (name + width-method set) the analyzer matches on, so the tests
// need no import of the real state package.
package codecpair

import "errors"

var errBad = errors.New("bad payload")

type Encoder struct{ buf []byte }

func (e *Encoder) U8(v uint8)     {}
func (e *Encoder) Bool(v bool)    {}
func (e *Encoder) U16(v uint16)   {}
func (e *Encoder) U32(v uint32)   {}
func (e *Encoder) U64(v uint64)   {}
func (e *Encoder) I64(v int64)    {}
func (e *Encoder) F64(v float64)  {}
func (e *Encoder) Bytes(v []byte) {}
func (e *Encoder) Data() []byte   { return e.buf }

type Decoder struct {
	rest []byte
	err  error
}

func NewDecoder(b []byte) *Decoder { return &Decoder{rest: b} }

func (d *Decoder) U8() uint8     { return 0 }
func (d *Decoder) Bool() bool    { return false }
func (d *Decoder) U16() uint16   { return 0 }
func (d *Decoder) U32() uint32   { return 0 }
func (d *Decoder) U64() uint64   { return 0 }
func (d *Decoder) I64() int64    { return 0 }
func (d *Decoder) F64() float64  { return 0 }
func (d *Decoder) Bytes() []byte { return nil }
func (d *Decoder) Len(n int) int { return 0 }
func (d *Decoder) Err() error    { return d.err }
func (d *Decoder) Finish() error { return d.err }

const goodVersion = 1

// Good round-trips symmetrically: no findings.
type Good struct {
	A uint64
	B float64
}

func (g *Good) MarshalBinary() ([]byte, error) {
	var e Encoder
	e.U16(goodVersion)
	e.U64(g.A)
	e.F64(g.B)
	return e.Data(), nil
}

func (g *Good) UnmarshalBinary(b []byte) error {
	d := NewDecoder(b)
	if v := d.U16(); v != goodVersion {
		return errBad
	}
	g.A = d.U64()
	g.B = d.F64()
	return d.Finish()
}

const driftVersion = 1

// Drift reads its float field at integer width.
type Drift struct{ X float64 }

func (g *Drift) MarshalBinary() ([]byte, error) {
	var e Encoder
	e.U16(driftVersion)
	e.F64(g.X)
	return e.Data(), nil
}

func (g *Drift) UnmarshalBinary(b []byte) error {
	d := NewDecoder(b)
	d.U16()
	g.X = float64(d.I64()) // want `encode writes F64 \(f64\) but decode reads I64`
	return d.Finish()
}

const shortVersion = 1

// Short's decode stops one field early.
type Short struct{ A, B uint64 }

func (s *Short) MarshalBinary() ([]byte, error) {
	var e Encoder
	e.U16(shortVersion)
	e.U64(s.A)
	e.U64(s.B) // want `never decoded`
	return e.Data(), nil
}

func (s *Short) UnmarshalBinary(b []byte) error { // want `field\(s\) B never decoded`
	d := NewDecoder(b)
	d.U16()
	s.A = d.U64()
	return d.Finish()
}

const orphanVersion = 1

// Orphan has no UnmarshalBinary at all.
type Orphan struct{ A uint64 }

func (o *Orphan) MarshalBinary() ([]byte, error) { // want `no UnmarshalBinary`
	var e Encoder
	e.U16(orphanVersion)
	e.U64(o.A)
	return e.Data(), nil
}

// Bare encodes without a version stamp.
type Bare struct{ A uint64 }

func (b *Bare) MarshalBinary() ([]byte, error) {
	var e Encoder
	e.U64(b.A) // want `does not open with a version stamp`
	return e.Data(), nil
}

func (b *Bare) UnmarshalBinary(blob []byte) error {
	d := NewDecoder(blob)
	b.A = d.U64()
	return d.Finish()
}

const cachedVersion = 1

// Cached opts its derived field out of the encoding.
type Cached struct {
	A     uint64
	cache []byte
}

//netsamp:codec-ignore cache
func (c *Cached) MarshalBinary() ([]byte, error) {
	var e Encoder
	e.U16(cachedVersion)
	e.U64(c.A)
	return e.Data(), nil
}

func (c *Cached) UnmarshalBinary(b []byte) error { // ok: codec-ignore covers both sides
	d := NewDecoder(b)
	d.U16()
	c.A = d.U64()
	return d.Finish()
}

const recVersion = 2

// Annotation-declared pair, symmetric: no findings.
//
//netsamp:codec pair=decodeRecord
func encodeRecord(v uint64, t float64) []byte {
	var e Encoder
	e.U16(recVersion)
	e.U64(v)
	e.F64(t)
	return e.Data()
}

func decodeRecord(b []byte) (uint64, float64, error) {
	d := NewDecoder(b)
	d.U16()
	v := d.U64()
	t := d.F64()
	return v, t, d.Finish()
}

// Annotation-declared pair with a width drift.
//
//netsamp:codec pair=decodeNarrow
func encodeNarrow(v uint64) []byte {
	var e Encoder
	e.U16(recVersion)
	e.U64(v)
	return e.Data()
}

func decodeNarrow(b []byte) (uint64, error) {
	d := NewDecoder(b)
	d.U16()
	v := uint64(d.U32()) // want `encode writes U64 \(u64\) but decode reads U32`
	return v, d.Finish()
}

// A pair directive naming a function that does not exist.
//
//netsamp:codec pair=decodeGone
func encodeGone(v uint64) []byte { // want `no such function`
	var e Encoder
	e.U16(recVersion)
	e.U64(v)
	return e.Data()
}
