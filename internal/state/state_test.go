package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U16(0xbeef)
	e.U32(0xdeadbeef)
	e.U64(1 << 62)
	e.I64(-42)
	e.F64(math.Pi)
	e.F64(math.Inf(-1))
	e.F64(math.NaN())
	e.Bytes([]byte("payload"))

	d := NewDecoder(e.Data())
	if got := d.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip")
	}
	if got := d.U16(); got != 0xbeef {
		t.Fatalf("U16 = %#x", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %#x", got)
	}
	if got := d.U64(); got != 1<<62 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Fatalf("F64 = %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Fatalf("F64 -Inf = %v", got)
	}
	if got := d.F64(); !math.IsNaN(got) {
		t.Fatalf("F64 NaN = %v", got)
	}
	if got := d.Bytes(); string(got) != "payload" {
		t.Fatalf("Bytes = %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	d.U64() // short
	if d.Err() == nil {
		t.Fatal("short read not detected")
	}
	if !errors.Is(d.Err(), ErrCodec) {
		t.Fatalf("error %v does not wrap ErrCodec", d.Err())
	}
	// Subsequent reads stay zero without panicking.
	if d.U32() != 0 || d.F64() != 0 || d.Bytes() != nil {
		t.Fatal("reads after error returned data")
	}
}

func TestDecoderLenGuardsAllocation(t *testing.T) {
	var e Encoder
	e.U32(1 << 30) // claims a billion elements
	d := NewDecoder(e.Data())
	if n := d.Len(8); n != 0 || d.Err() == nil {
		t.Fatalf("bogus count accepted: n=%d err=%v", n, d.Err())
	}
}

func TestDecoderFinishTrailing(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	d.U8()
	if err := d.Finish(); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestSnapshotSaveLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty store Load = %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Save([]byte{byte(i), byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	payload, seq, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 || !bytes.Equal(payload, []byte{4, 4, 4}) {
		t.Fatalf("Load = %v seq %d", payload, seq)
	}
	// Retention: the two slots hold the newest two generations, and
	// nothing else is on disk.
	entries, _ := os.ReadDir(dir)
	if len(entries) != len(slotNames) {
		t.Fatalf("%d files on disk, want the %d slots", len(entries), len(slotNames))
	}
	if _, ok := slotHolding(t, dir, 4); !ok {
		t.Fatal("newest generation not in a slot")
	}
	if _, ok := slotHolding(t, dir, 3); !ok {
		t.Fatal("previous generation not retained")
	}
	// Reopen: sequence numbering continues.
	s2, err := OpenSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Save([]byte("next")); err != nil {
		t.Fatal(err)
	}
	if _, seq, _ := s2.Load(); seq != 5 {
		t.Fatalf("sequence after reopen = %d, want 5", seq)
	}
}

// TestSnapshotCorruptionFallsBack: a corrupted latest generation must
// fall back to the previous valid one, not error out.
func TestSnapshotCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save([]byte("old-good")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save([]byte("new-bad")); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the newest generation.
	path, ok := slotHolding(t, dir, 1)
	if !ok {
		t.Fatal("generation 1 not on disk")
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	payload, seq, err := s.Load()
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if seq != 0 || string(payload) != "old-good" {
		t.Fatalf("Load = %q seq %d, want old-good seq 0", payload, seq)
	}
	if s.Corrupted() == 0 {
		t.Fatal("corruption not counted")
	}
	// Truncated header: also detected.
	if err := os.WriteFile(path, blob[:7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, seq, err := s.Load(); err != nil || seq != 0 {
		t.Fatalf("truncated-header fallback: seq %d err %v", seq, err)
	}
}

// slotHolding returns the slot file whose envelope verifies and carries
// sequence number seq.
func slotHolding(t *testing.T, dir string, seq uint64) (string, bool) {
	t.Helper()
	for _, name := range slotNames {
		path := filepath.Join(dir, name)
		blob, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if _, got, err := decodeSnapshot(blob); err == nil && got == seq {
			return path, true
		}
	}
	return "", false
}

// envelope builds a version-2 envelope by hand, independently of Save.
func envelope(seq uint64, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, snapshotMagic)
	b = binary.LittleEndian.AppendUint16(b, 2)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(append(bytes.Clone(b), payload...)))
	return append(b, payload...)
}

// fill is a payload whose every byte differs from any other
// generation's, so a torn slot can never pass for a neighbour.
func fill(gen, n int) []byte { return bytes.Repeat([]byte{0x10 + byte(gen)}, n) }

// TestSnapshotSlotTear is every fault point of the slot store: each
// slot torn at every byte length — cut short as a freshly created file
// would be, and written over its previous contents as an in-place
// overwrite would be — and each byte of each field (magic, version,
// flags, seq, length, CRC, payload) flipped. Load must return the
// newest intact generation, never an error while one slot verifies,
// with Corrupted counting the slot that did not; and the next Save must
// land in the damaged slot, never over the survivor.
func TestSnapshotSlotTear(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Generations 0..3 alternate slots; generation 2 is shorter than 0, so
	// slot 0 carries trailing bytes that must be ignored.
	sizes := []int{40, 30, 20, 35}
	for gen, n := range sizes {
		if err := s.Save(fill(gen, n)); err != nil {
			t.Fatal(err)
		}
	}
	var files, cur, prev [2][]byte
	for slot := range slotNames {
		if files[slot], err = os.ReadFile(filepath.Join(dir, slotNames[slot])); err != nil {
			t.Fatal(err)
		}
		// Slot i holds generation i+2 over generation i.
		cur[slot] = envelope(uint64(slot+2), fill(slot+2, sizes[slot+2]))
		prev[slot] = envelope(uint64(slot), fill(slot, sizes[slot]))
		if !bytes.HasPrefix(files[slot], cur[slot]) {
			t.Fatalf("slot %d does not start with a hand-built envelope of generation %d", slot, slot+2)
		}
	}
	if !bytes.Equal(files[0][len(cur[0]):], prev[0][len(cur[0]):]) {
		t.Fatal("slot 0's trailing bytes are not generation 0's tail")
	}

	// check installs content in one slot (the other keeps its
	// generation), loads through a fresh store, then saves and reloads.
	check := func(what string, slot int, content []byte) {
		t.Helper()
		for i := range slotNames {
			b := files[i]
			if i == slot {
				b = content
			}
			if err := os.WriteFile(filepath.Join(dir, slotNames[i]), b, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		other := 1 - slot
		want := uint64(other + 2)
		wantCorrupt := 1
		if bytes.HasPrefix(content, cur[slot]) {
			// Undamaged (a flipped trailing byte): this slot still verifies.
			want, wantCorrupt = 3, 0
		} else if bytes.HasPrefix(content, prev[slot]) {
			// The tear left the slot's previous generation intact.
			wantCorrupt = 0
		}
		st, err := OpenSnapshots(dir)
		if err != nil {
			t.Fatal(err)
		}
		payload, seq, err := st.Load()
		if err != nil || seq != want || !bytes.Equal(payload, fill(int(want), sizes[want])) {
			t.Fatalf("%s: Load = seq %d err %v, want generation %d", what, seq, err, want)
		}
		if st.Corrupted() != wantCorrupt {
			t.Fatalf("%s: Corrupted = %d, want %d", what, st.Corrupted(), wantCorrupt)
		}
		if err := st.Save([]byte("next")); err != nil {
			t.Fatal(err)
		}
		st, err = OpenSnapshots(dir)
		if err != nil {
			t.Fatal(err)
		}
		if payload, seq, err := st.Load(); err != nil || seq != want+1 || string(payload) != "next" {
			t.Fatalf("%s: after Save, Load = %q seq %d err %v, want seq %d", what, payload, seq, err, want+1)
		}
		if _, ok := slotHolding(t, dir, want); !ok {
			t.Fatalf("%s: Save overwrote the surviving generation %d", what, want)
		}
	}

	for slot := range slotNames {
		env := cur[slot]
		for n := 0; n < len(env); n++ {
			check(fmt.Sprintf("slot %d cut at %d", slot, n), slot, bytes.Clone(env[:n]))
			over := append(bytes.Clone(env[:n]), prev[slot][min(n, len(prev[slot])):]...)
			check(fmt.Sprintf("slot %d torn over its previous generation at %d", slot, n), slot, over)
		}
		fields := []struct {
			name   string
			lo, hi int
		}{
			{"magic", 0, 4}, {"version", 4, 6}, {"flags", 6, 8}, {"seq", 8, 16},
			{"length", 16, 20}, {"crc", 20, 24}, {"payload", 24, len(env)},
		}
		for _, f := range fields {
			for i := f.lo; i < f.hi; i++ {
				b := bytes.Clone(files[slot])
				b[i] ^= 0xff
				check(fmt.Sprintf("slot %d %s byte %d flipped", slot, f.name, i), slot, b)
			}
		}
		for i := len(env); i < len(files[slot]); i++ {
			b := bytes.Clone(files[slot])
			b[i] ^= 0xff
			check(fmt.Sprintf("slot %d trailing byte %d flipped", slot, i), slot, b)
		}
	}

	// Both slots damaged: no generation survives.
	for i := range slotNames {
		if err := os.WriteFile(filepath.Join(dir, slotNames[i]), files[i][:snapshotHeader], 0o600); err != nil {
			t.Fatal(err)
		}
	}
	st, err := OpenSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(); !errors.Is(err, ErrNoSnapshot) || st.Corrupted() != 2 {
		t.Fatalf("both slots torn: err %v, Corrupted %d", err, st.Corrupted())
	}
}

// legacyEnvelope builds a version-1 snapshot file by hand: magic,
// version 1, flags, length, payload CRC, payload.
func legacyEnvelope(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, snapshotMagic)
	b = binary.LittleEndian.AppendUint16(b, 1)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// TestSnapshotLegacyMigration: a directory written by the one-file-per-
// generation store (snap-<seq>.nss) loads; the first Save continues its
// sequence whether or not Load ran first; a reopen returns the new
// generation; and the version-1 files are gone.
func TestSnapshotLegacyMigration(t *testing.T) {
	for _, loadFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("load-first=%v", loadFirst), func(t *testing.T) {
			dir := t.TempDir()
			for seq, blob := range map[int][]byte{
				3: legacyEnvelope([]byte("three")),
				4: legacyEnvelope([]byte("four")),
				5: append(legacyEnvelope([]byte("five")), 0), // not exactly its length: corrupt
			} {
				name := filepath.Join(dir, fmt.Sprintf("snap-%016x.nss", seq))
				if err := os.WriteFile(name, blob, 0o600); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, "snap-notes.nss"), []byte("foreign"), 0o600); err != nil {
				t.Fatal(err)
			}
			s, err := OpenSnapshots(dir)
			if err != nil {
				t.Fatal(err)
			}
			if loadFirst {
				payload, seq, err := s.Load()
				if err != nil || seq != 4 || string(payload) != "four" {
					t.Fatalf("legacy Load = %q seq %d err %v, want four seq 4", payload, seq, err)
				}
				if s.Corrupted() != 1 {
					t.Fatalf("Corrupted = %d, want 1", s.Corrupted())
				}
			}
			if err := s.Save([]byte("next")); err != nil {
				t.Fatal(err)
			}
			legacy, err := filepath.Glob(filepath.Join(dir, "snap-*.nss"))
			if err != nil {
				t.Fatal(err)
			}
			if len(legacy) != 1 || filepath.Base(legacy[0]) != "snap-notes.nss" {
				t.Fatalf("after the first Save, legacy files left: %v (want only the foreign one)", legacy)
			}
			s2, err := OpenSnapshots(dir)
			if err != nil {
				t.Fatal(err)
			}
			payload, seq, err := s2.Load()
			if err != nil || seq != 5 || string(payload) != "next" {
				t.Fatalf("reopened Load = %q seq %d err %v, want next seq 5", payload, seq, err)
			}
		})
	}
}

func TestJournalAppendRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.nsj")
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	for i := 0; i < 10; i++ {
		if err := j.Append([]byte{byte(i), 0xaa}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 10 || j2.Len() != 10 || j2.Torn() {
		t.Fatalf("recovered %d records, torn=%v", len(recs), j2.Torn())
	}
	for i, r := range recs {
		if !bytes.Equal(r, []byte{byte(i), 0xaa}) {
			t.Fatalf("record %d = %v", i, r)
		}
	}
}

// TestJournalTornTail: a partial append (torn length, torn payload, or
// corrupted CRC) is truncated on reopen; the valid prefix survives; the
// journal keeps appending cleanly from the cut.
func TestJournalTornTail(t *testing.T) {
	for _, tear := range []struct {
		name string
		grow func([]byte) []byte
	}{
		{"torn-length", func(b []byte) []byte { return append(b, 0x05, 0x00) }},
		{"torn-payload", func(b []byte) []byte {
			return append(b, 0xff, 0x00, 0x00, 0x00, 1, 2, 3, 4, 9, 9)
		}},
		{"crc-mismatch", func(b []byte) []byte {
			return append(b, 2, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 7, 7)
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.nsj")
			j, _, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			j.Append([]byte("one"))
			j.Append([]byte("two"))
			j.Close()
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tear.grow(blob), 0o644); err != nil {
				t.Fatal(err)
			}
			j2, recs, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if !j2.Torn() {
				t.Fatal("torn tail not reported")
			}
			if len(recs) != 2 || string(recs[0]) != "one" || string(recs[1]) != "two" {
				t.Fatalf("valid prefix lost: %q", recs)
			}
			if err := j2.Append([]byte("three")); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			_, recs, err = OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 3 || string(recs[2]) != "three" {
				t.Fatalf("append after truncation: %q", recs)
			}
		})
	}
}

// TestJournalHealsFailedAppend: an append that failed part-way leaves
// bytes past the last acknowledged record and the file position past
// them. The next append must land over those bytes, so a reopen keeps
// both acknowledged records; written at the file position, the second
// record sat behind the garbage and recovery cut it off as a torn tail.
func TestJournalHealsFailedAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.nsj")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("A")); err != nil {
		t.Fatal(err)
	}
	// The partial write: a record header claiming more than the limit and
	// a few payload bytes, longer than the record that follows.
	if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := j.f.Write([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("B")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 2 || string(recs[0]) != "A" || string(recs[1]) != "B" {
		t.Fatalf("records after a failed append = %q, want [A B]", recs)
	}
}

func TestJournalTruncateTo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.nsj")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		j.Append([]byte{byte(i)})
	}
	if err := j.TruncateTo(7); err == nil {
		t.Fatal("overlong truncation accepted")
	}
	if err := j.TruncateTo(3); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 3 {
		t.Fatalf("Len = %d", j.Len())
	}
	j.Append([]byte{0xcc})
	j.Close()
	_, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{{0}, {1}, {2}, {0xcc}}
	if len(recs) != len(want) {
		t.Fatalf("%d records after truncate+append", len(recs))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %v, want %v", i, recs[i], want[i])
		}
	}
}

func TestJournalRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.nsj")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); err == nil {
		t.Fatal("foreign file accepted as journal")
	}
}
