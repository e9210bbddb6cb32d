package packet

import (
	"testing"
	"testing/quick"
)

func sampleTuple() FiveTuple {
	return FiveTuple{
		Src:     AddrFrom4(10, 0, 0, 1),
		Dst:     AddrFrom4(192, 168, 1, 200),
		SrcPort: 443,
		DstPort: 51234,
		Proto:   ProtoTCP,
	}
}

func TestAddrString(t *testing.T) {
	a := AddrFrom4(10, 1, 2, 3)
	if a.String() != "10.1.2.3" {
		t.Fatalf("Addr.String = %q", a.String())
	}
}

func TestFiveTupleString(t *testing.T) {
	got := sampleTuple().String()
	want := "6 10.0.0.1:443->192.168.1.200:51234"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestFastHashDistinguishesFields(t *testing.T) {
	base := sampleTuple()
	reversed := FiveTuple{Src: base.Dst, Dst: base.Src, SrcPort: base.DstPort, DstPort: base.SrcPort, Proto: base.Proto}
	mutants := []FiveTuple{reversed}
	m := base
	m.SrcPort++
	mutants = append(mutants, m)
	m = base
	m.Proto = ProtoUDP
	mutants = append(mutants, m)
	m = base
	m.Dst++
	mutants = append(mutants, m)
	h := base.FastHash()
	for i, mu := range mutants {
		if mu.FastHash() == h {
			t.Fatalf("mutant %d collides with base", i)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := Record{
		Key:       sampleTuple(),
		MonitorID: 12,
		Packets:   987654321,
		Bytes:     1234567890123,
		Start:     1000,
		End:       1290,
	}
	wire := r.AppendTo(nil)
	if len(wire) != RecordSize {
		t.Fatalf("wire size = %d", len(wire))
	}
	var got Record
	if err := got.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip: %+v != %+v", got, r)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8, mon uint16, pkts, bytes uint64, start, end uint32) bool {
		r := Record{
			Key:       FiveTuple{Src: Addr(src), Dst: Addr(dst), SrcPort: sp, DstPort: dp, Proto: proto},
			MonitorID: mon,
			Packets:   pkts,
			Bytes:     bytes,
			Start:     start,
			End:       end,
		}
		var got Record
		if err := got.DecodeFromBytes(r.AppendTo(nil)); err != nil {
			return false
		}
		return got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecordDecodeErrors(t *testing.T) {
	var r Record
	if err := r.DecodeFromBytes(make([]byte, RecordSize-1)); err != ErrShortBuffer {
		t.Fatalf("short buffer: %v", err)
	}
	wire := (&Record{Key: sampleTuple()}).AppendTo(nil)
	wire[0] = 99
	if err := r.DecodeFromBytes(wire); err != ErrBadVersion {
		t.Fatalf("bad version: %v", err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Count: 17, Seq: 424242, Exporter: 7}
	wire := h.AppendTo(nil)
	if len(wire) != HeaderSize {
		t.Fatalf("wire size = %d", len(wire))
	}
	var got Header
	if err := got.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
}

func TestHeaderDecodeErrors(t *testing.T) {
	var h Header
	if err := h.DecodeFromBytes(make([]byte, 3)); err != ErrShortBuffer {
		t.Fatalf("short: %v", err)
	}
	bad := make([]byte, HeaderSize)
	if err := h.DecodeFromBytes(bad); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}
	wire := (&Header{Count: 1}).AppendTo(nil)
	wire[2] = 200
	if err := h.DecodeFromBytes(wire); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
}

func TestAppendToReusesCapacity(t *testing.T) {
	r := Record{Key: sampleTuple()}
	buf := make([]byte, 0, 4*RecordSize)
	out := r.AppendTo(buf)
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendTo reallocated despite spare capacity")
	}
}

func BenchmarkRecordAppend(b *testing.B) {
	r := Record{Key: sampleTuple(), Packets: 100, Bytes: 15000, Start: 1, End: 2}
	buf := make([]byte, 0, RecordSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.AppendTo(buf[:0])
	}
}

func BenchmarkRecordDecode(b *testing.B) {
	wire := (&Record{Key: sampleTuple(), Packets: 100}).AppendTo(nil)
	var r Record
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.DecodeFromBytes(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFastHash(b *testing.B) {
	tup := sampleTuple()
	for i := 0; i < b.N; i++ {
		_ = tup.FastHash()
	}
}
