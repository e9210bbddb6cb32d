package netflow

import (
	"testing"

	"netsamp/internal/packet"
)

// FuzzCollectorDecode: the collector's datagram decoder must be total.
// The corpus seeds the hardened paths explicitly: truncated headers,
// mid-record cuts, counts exceeding the buffer, and trailing garbage.
func FuzzCollectorDecode(f *testing.F) {
	c := &Collector{exps: map[uint32]*SeqTracker{}}
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	whole := dgram(1, 0, 3)
	f.Add(whole)
	f.Add(whole[:packet.HeaderSize-3])                      // truncated header
	f.Add(whole[:packet.HeaderSize])                        // count declared, no records
	f.Add(whole[:packet.HeaderSize+packet.RecordSize+7])    // cut mid-record
	f.Add(whole[:len(whole)-1])                             // last record short one byte
	f.Add(append(append([]byte{}, whole...), 0xca, 0xfe))   // trailing garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		c.decode(data) // must not panic
	})
}

// TestDecodeTruncated: datagrams whose declared record count exceeds the
// buffer — truncated headers, mid-record cuts, a whole missing tail —
// are counted Malformed and never advance the sequence accounting.
func TestDecodeTruncated(t *testing.T) {
	whole := dgram(9, 0, 4)
	cuts := [][]byte{
		{},
		whole[:1],
		whole[:packet.HeaderSize-1],                     // header cut short
		whole[:packet.HeaderSize],                       // count=4, zero record bytes
		whole[:packet.HeaderSize+packet.RecordSize/2],   // cut inside record 0
		whole[:packet.HeaderSize+packet.RecordSize+1],   // cut just after record 1 starts
		whole[:len(whole)-1],                            // one byte shy of complete
		append(append([]byte{}, whole...), 0x00),        // one byte of trailing garbage
		dgram(9, 0, 0),                                  // empty datagram: forged count
	}
	c := offlineCollector()
	for i, cut := range cuts {
		if _, ok := c.decode(cut); ok {
			t.Fatalf("cut %d accepted (%d bytes)", i, len(cut))
		}
	}
	st := c.Stats()
	if st.Malformed != uint64(len(cuts)) {
		t.Fatalf("Malformed = %d, want %d", st.Malformed, len(cuts))
	}
	if st.Datagrams != 0 || st.Records != 0 || st.LostRecords != 0 {
		t.Fatalf("truncated datagrams advanced accounting: %+v", st)
	}
	if _, known := c.ExporterStats(9); known {
		t.Fatal("truncated datagram created exporter state")
	}
	// The intact datagram still decodes after all that abuse.
	if _, ok := c.decode(whole); !ok {
		t.Fatal("intact datagram rejected")
	}
}
