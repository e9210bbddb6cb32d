package state

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Journal file format (little-endian):
//
//	header:  magic u32 "NSJL" | version u16 | flags u16 (zero)
//	record:  length u32 | crc32 u32 | payload
//
// Records are appended and fsynced one at a time; a crash mid-append
// leaves a torn tail that OpenJournal detects (short read or CRC
// mismatch) and truncates, so the journal always reopens to a valid
// prefix. The journal is the write-ahead decision log of the control
// loop: every interval's decision is appended before the loop advances,
// and recovery re-executes from the last snapshot, cross-checking the
// re-derived decisions against the surviving journal records.

const (
	journalMagic   = 0x4c4a534e // "NSJL"
	journalVersion = 1
	journalHeader  = 8
	recordHeader   = 8
)

// maxRecordSize bounds a single journal record; a length prefix beyond
// it is treated as a torn tail rather than an allocation request.
const maxRecordSize = 16 << 20

// ErrTornTail annotates the (non-fatal) truncation OpenJournal performs.
var ErrTornTail = errors.New("state: torn journal tail truncated")

// Journal is an append-only, CRC-guarded record log. It is not safe for
// concurrent use.
type Journal struct {
	f       *os.File
	path    string
	offsets []int64 // end offset of each record
	torn    bool
	// scratch assembles header+payload for one write call; reused across
	// appends so the steady-state append path allocates nothing.
	scratch []byte
}

// OpenJournal opens (creating if needed) the journal at path, scans the
// valid record prefix, truncates any torn tail, and returns the journal
// positioned for appending together with the surviving record payloads.
func OpenJournal(path string) (*Journal, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("state: open journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	records, err := j.recover()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, records, nil
}

// recover scans the file, truncates at the first invalid byte, and
// returns the valid records.
func (j *Journal) recover() ([][]byte, error) {
	blob, err := io.ReadAll(j.f)
	if err != nil {
		return nil, fmt.Errorf("state: read journal: %w", err)
	}
	if len(blob) == 0 {
		// Fresh journal: write the header.
		var e Encoder
		e.U32(journalMagic)
		e.U16(journalVersion)
		e.U16(0)
		if _, err := j.f.WriteAt(e.Data(), 0); err != nil {
			return nil, fmt.Errorf("state: init journal: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return nil, fmt.Errorf("state: init journal: %w", err)
		}
		return nil, nil
	}
	if len(blob) < journalHeader ||
		binary.LittleEndian.Uint32(blob[0:]) != journalMagic ||
		binary.LittleEndian.Uint16(blob[4:]) != journalVersion {
		// Unrecognizable file: refuse rather than silently overwrite —
		// the operator pointed the daemon at something that is not a
		// netsamp journal.
		return nil, fmt.Errorf("state: %s is not a netsamp journal", j.path)
	}
	var records [][]byte
	off := int64(journalHeader)
	for {
		rest := blob[off:]
		if len(rest) == 0 {
			break
		}
		if len(rest) < recordHeader {
			j.torn = true
			break
		}
		n := binary.LittleEndian.Uint32(rest[0:])
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n > maxRecordSize || int(n) > len(rest)-recordHeader {
			j.torn = true
			break
		}
		payload := rest[recordHeader : recordHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			j.torn = true
			break
		}
		off += recordHeader + int64(n)
		j.offsets = append(j.offsets, off)
		records = append(records, payload)
	}
	if j.torn {
		if err := j.f.Truncate(off); err != nil {
			return nil, fmt.Errorf("state: truncate torn tail: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return nil, fmt.Errorf("state: truncate torn tail: %w", err)
		}
	}
	return records, nil
}

// Torn reports whether OpenJournal truncated a torn tail.
func (j *Journal) Torn() bool { return j.torn }

// Len returns the number of records in the journal.
func (j *Journal) Len() int { return len(j.offsets) }

// Append writes one record (length, CRC, payload) and fsyncs, so an
// acknowledged append survives a crash. Header and payload are staged in
// a journal-owned scratch buffer and issued as one write so a record is
// never split across syscalls. The write lands at the end of the last
// acknowledged record, not at the file position: bytes a failed append
// left behind are overwritten, never kept in front of the next record
// where recovery would take them for a torn tail and cut it off.
//
//netsamp:noalloc
func (j *Journal) Append(payload []byte) error {
	if len(payload) > maxRecordSize {
		return fmt.Errorf("state: journal record of %d bytes exceeds limit", len(payload))
	}
	j.scratch = append(j.scratch[:0],
		byte(len(payload)), byte(len(payload)>>8), byte(len(payload)>>16), byte(len(payload)>>24))
	sum := crc32.ChecksumIEEE(payload)
	j.scratch = append(j.scratch, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
	j.scratch = append(j.scratch, payload...)
	end := int64(journalHeader)
	if len(j.offsets) > 0 {
		end = j.offsets[len(j.offsets)-1]
	}
	if _, err := j.f.WriteAt(j.scratch, end); err != nil {
		return fmt.Errorf("state: append journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("state: sync journal: %w", err)
	}
	j.offsets = append(j.offsets, end+recordHeader+int64(len(payload)))
	return nil
}

// TruncateTo keeps the first n records and discards the rest — recovery
// cuts the journal back to the snapshot boundary before re-executing
// (and re-journaling) the intervals after it.
func (j *Journal) TruncateTo(n int) error {
	if n < 0 || n > len(j.offsets) {
		return fmt.Errorf("state: truncate to %d of %d records", n, len(j.offsets))
	}
	if n == len(j.offsets) {
		return nil
	}
	end := int64(journalHeader)
	if n > 0 {
		end = j.offsets[n-1]
	}
	if err := j.f.Truncate(end); err != nil {
		return fmt.Errorf("state: truncate journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("state: truncate journal: %w", err)
	}
	j.offsets = j.offsets[:n]
	return nil
}

// Close releases the file handle.
func (j *Journal) Close() error { return j.f.Close() }
