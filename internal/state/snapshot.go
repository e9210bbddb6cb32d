package state

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Snapshot envelope (little-endian):
//
//	0  magic   u32  "NSST"
//	4  version u16  envelope format version
//	6  flags   u16  reserved, zero
//	8  seq     u64  generation sequence number
//	16 length  u32  payload byte count
//	20 crc32   u32  IEEE CRC of bytes 0–19, then of the payload
//	24 payload
//
// Bytes past the payload are ignored. The store keeps two slot files,
// slot-0.nss and slot-1.nss, and overwrites them in place: Save writes
// the next generation at offset 0 of the slot that does not hold the
// newest valid generation and fsyncs that one file. The previous
// generation stays intact in the other slot until the new one is
// durable, and a torn or damaged slot fails its CRC, so Load — the
// valid slot with the highest sequence number — falls back to the other
// slot, never to an error the operator has to hand-fix. The CRC covers
// the sequence number, so a damaged header cannot pass a stale
// generation off as the newest; the length field lets a shorter
// generation overwrite a longer one without truncating the file.
//
// Version 1 kept one generation per file, snap-<seq>.nss with a
// 16-hex-digit sequence number, renamed into place from a temporary
// file; its envelope had no sequence number and a CRC over the payload
// only. The store still reads such files, and its first Save continues
// their sequence and removes them once the slot is durable.

const (
	snapshotMagic   = 0x5453534e // "NSST"
	snapshotVersion = 2
	snapshotHeader  = 24
	snapshotCRCAt   = 20 // the CRC covers the header bytes before it

	legacyVersion = 1
	legacyHeader  = 16
	legacyPrefix  = "snap-"
	legacySuffix  = ".nss"
)

var slotNames = [2]string{"slot-0.nss", "slot-1.nss"}

// ErrNoSnapshot reports a store with no decodable snapshot.
var ErrNoSnapshot = errors.New("state: no valid snapshot")

// ErrCorrupt reports an envelope that failed verification (bad magic,
// unknown version, short payload, or CRC mismatch).
var ErrCorrupt = errors.New("state: corrupt snapshot")

// SnapshotStore persists versioned snapshots in a directory. It holds
// no open file between calls. It is not safe for concurrent use; the
// control loop owns it from one goroutine.
type SnapshotStore struct {
	dir string
	// legacy holds the sequence numbers of version-1 files on disk.
	legacy []uint64
	// scanned reports that newest and nextSeq reflect the disk: set by
	// Load, or by the first Save when Load was never called.
	scanned bool
	newest  int // slot holding the newer valid generation, or -1
	nextSeq uint64
	// dirSynced[i] reports that this store has fsynced the directory
	// since it first wrote slot i, so the slot's name is durable even if
	// an earlier process created it and crashed before its own fsync.
	dirSynced [2]bool
	corrupted int
}

// OpenSnapshots opens (creating if needed) the snapshot store in dir.
func OpenSnapshots(dir string) (*SnapshotStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state: open snapshot store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("state: scan snapshots: %w", err)
	}
	s := &SnapshotStore{dir: dir}
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, legacyPrefix) || !strings.HasSuffix(name, legacySuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, legacyPrefix), legacySuffix)
		seq, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		s.legacy = append(s.legacy, seq)
	}
	return s, nil
}

// Corrupted returns how many snapshot generations failed verification
// when the store read them — the operator-visible signal that the
// fallback path engaged.
func (s *SnapshotStore) Corrupted() int { return s.corrupted }

func (s *SnapshotStore) legacyPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016x%s", legacyPrefix, seq, legacySuffix))
}

// Save writes payload as the next snapshot generation: the envelope at
// offset 0 of the slot not holding the newest valid generation, then
// one fsync of that file. The directory is fsynced only the first time
// this store writes each slot, which is what makes a newly created slot
// file's name durable. A failed Save leaves the newest generation where
// it was; the next Save retries the same slot.
//
//netsamp:codec pair=decodeSnapshot
func (s *SnapshotStore) Save(payload []byte) error {
	if !s.scanned {
		s.Load() // ErrNoSnapshot just means the sequence starts at 0
	}
	seq := s.nextSeq
	e := Encoder{buf: make([]byte, 0, snapshotHeader+len(payload))}
	e.U32(snapshotMagic)
	e.U16(snapshotVersion)
	e.U16(0)
	e.U64(seq)
	e.U32(uint32(len(payload)))
	e.U32(crc32.Update(crc32.ChecksumIEEE(e.Data()), crc32.IEEETable, payload))
	blob := append(e.Data(), payload...)

	slot := 0
	if s.newest == 0 {
		slot = 1
	}
	f, err := os.OpenFile(filepath.Join(s.dir, slotNames[slot]), os.O_WRONLY|os.O_CREATE, 0o600)
	if err != nil {
		return fmt.Errorf("state: save snapshot: %w", err)
	}
	if _, err = f.WriteAt(blob, 0); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("state: save snapshot: %w", err)
	}
	if !s.dirSynced[slot] {
		syncDir(s.dir)
		s.dirSynced[slot] = true
	}
	s.newest, s.nextSeq = slot, seq+1

	// The slot is durable and newer than every version-1 file. Removal
	// is best-effort: a survivor is an older generation Load passes over.
	for _, old := range s.legacy {
		os.Remove(s.legacyPath(old))
	}
	s.legacy = nil
	return nil
}

// Load reads every generation on disk — both slots and any version-1
// files — and returns the payload and sequence number of the newest
// that verifies. Generations failing verification are skipped (and
// counted in Corrupted); ErrNoSnapshot is returned when none survives.
// It also records what Save needs: which slot holds the newer valid
// generation (the one Save must not overwrite) and the sequence number
// to continue from.
func (s *SnapshotStore) Load() ([]byte, uint64, error) {
	var (
		payload []byte
		seq     uint64
		found   bool
	)
	keep := func(p []byte, q uint64) bool {
		if found && q <= seq {
			return false
		}
		payload, seq, found = p, q, true
		return true
	}
	s.newest = -1
	for i, name := range slotNames {
		blob, err := os.ReadFile(filepath.Join(s.dir, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		var p []byte
		var q uint64
		if err == nil {
			p, q, err = decodeSnapshot(blob)
		}
		if err != nil {
			s.corrupted++
			continue
		}
		if keep(p, q) {
			s.newest = i
		}
	}
	for _, q := range s.legacy {
		blob, err := os.ReadFile(s.legacyPath(q))
		var p []byte
		if err == nil {
			p, err = decodeLegacySnapshot(blob)
		}
		if err != nil {
			s.corrupted++
			continue
		}
		keep(p, q)
	}
	s.scanned = true
	s.nextSeq = 0
	if !found {
		return nil, 0, ErrNoSnapshot
	}
	s.nextSeq = seq + 1
	return payload, seq, nil
}

// decodeSnapshot verifies an envelope and returns its payload and
// sequence number.
func decodeSnapshot(blob []byte) ([]byte, uint64, error) {
	d := NewDecoder(blob)
	if d.U32() != snapshotMagic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := d.U16(); v != snapshotVersion {
		return nil, 0, fmt.Errorf("%w: unknown format version %d", ErrCorrupt, v)
	}
	d.U16() // flags
	seq := d.U64()
	n := d.U32()
	sum := d.U32()
	if err := d.Err(); err != nil {
		return nil, 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if uint64(n) > uint64(d.Remaining()) {
		return nil, 0, fmt.Errorf("%w: payload length %d, have %d", ErrCorrupt, n, d.Remaining())
	}
	payload := blob[snapshotHeader : snapshotHeader+int(n)]
	if crc32.Update(crc32.ChecksumIEEE(blob[:snapshotCRCAt]), crc32.IEEETable, payload) != sum {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return payload, seq, nil
}

// decodeLegacySnapshot verifies a version-1 envelope (magic, version,
// flags, length, payload CRC, then exactly the payload) and returns the
// payload.
func decodeLegacySnapshot(blob []byte) ([]byte, error) {
	d := NewDecoder(blob)
	if d.U32() != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := d.U16(); v != legacyVersion {
		return nil, fmt.Errorf("%w: unknown format version %d", ErrCorrupt, v)
	}
	d.U16() // flags
	n := d.U32()
	sum := d.U32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if int(n) != d.Remaining() {
		return nil, fmt.Errorf("%w: payload length %d, have %d", ErrCorrupt, n, d.Remaining())
	}
	payload := blob[legacyHeader:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return payload, nil
}

// syncDir fsyncs a directory so a newly created file's name is durable.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync() //netsamp:err-ok some filesystems reject directory fsync; the file's own fsync already ran
		f.Close()
	}
}
