package db

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Offline verification walkers — the machinery behind `gbadmin fsck`.
// Unlike Replay they are strictly read-only: a torn tail is reported,
// never truncated, so fsck can be pointed at a live or quarantined data
// directory without changing what the next boot will see.

// JournalReport is the result of one read-only journal walk.
type JournalReport struct {
	Path  string `json:"path"`
	Codec string `json:"codec"` // "json", "bin1", or "empty"
	// Batches and Entries count the intact prefix.
	Batches int `json:"batches"`
	Entries int `json:"entries"`
	// FirstSeq/LastSeq bound the intact prefix's sequence numbers
	// (0/0 when no sequenced entries exist).
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	// GoodBytes is the size of the intact prefix; TornBytes counts
	// trailing bytes in a torn tail — a benign crash artifact that the
	// next open repairs by truncation.
	GoodBytes int64 `json:"good_bytes"`
	TornBytes int64 `json:"torn_bytes"`
	// MidFileCorrupt: a bad region is followed by intact batches. The
	// next open will refuse; manual repair is required.
	MidFileCorrupt bool `json:"mid_file_corrupt,omitempty"`
	// NonMonotonic: sequence numbers in the intact prefix go backwards
	// (ignoring seq-less legacy entries) — replay order is suspect.
	NonMonotonic bool `json:"non_monotonic,omitempty"`
	// ByTableOp is the intact prefix's byte ledger, largest first. What
	// it does not count of GoodBytes is batch framing.
	ByTableOp []OpBytes `json:"by_table_op,omitempty"`
}

// OpBytes is one line of a journal's byte ledger: the entries of one
// (table, op) pair and their encoded size in the journal's codec.
type OpBytes struct {
	Table   string `json:"table"`
	Op      Op     `json:"op"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// OK reports whether the journal is safe to boot from as-is (a torn
// tail is OK: the open repairs it and loses nothing acked).
func (r *JournalReport) OK() bool { return !r.MidFileCorrupt && !r.NonMonotonic }

// Verdict is the operator-facing one-liner.
func (r *JournalReport) Verdict() string {
	switch {
	case r.MidFileCorrupt:
		return fmt.Sprintf("CORRUPT mid-file after %d intact batches (%d bytes) — manual repair required", r.Batches, r.GoodBytes)
	case r.NonMonotonic:
		return "CORRUPT non-monotonic sequence numbers"
	case r.TornBytes > 0:
		return fmt.Sprintf("OK %d batches, seq %d..%d (%d-byte torn tail will truncate at next open)", r.Batches, r.FirstSeq, r.LastSeq, r.TornBytes)
	case r.Entries == 0:
		return "OK empty"
	default:
		return fmt.Sprintf("OK %d batches, %d entries, seq %d..%d", r.Batches, r.Entries, r.FirstSeq, r.LastSeq)
	}
}

// VerifyJournal walks a journal file read-only, verifying every batch
// (JSON parse, or bin1 CRC + decode) and classifying any damage the
// way Replay would, without repairing anything.
func VerifyJournal(fsys FS, path string) (*JournalReport, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	r := &JournalReport{Path: path, Codec: "empty"}
	if len(b) == 0 {
		return r, nil
	}
	if b[0] == binJournalMagic[0] {
		r.Codec = "bin1"
		verifyBinJournal(b, r)
	} else {
		r.Codec = "json"
		verifyJSONJournal(b, r)
	}
	sort.SliceStable(r.ByTableOp, func(i, j int) bool { return r.ByTableOp[i].Bytes > r.ByTableOp[j].Bytes })
	return r, nil
}

// noteBatch accounts one intact batch; sizes[i] is entry i's encoded
// size.
func (r *JournalReport) noteBatch(entries []Entry, sizes []int, size int64) {
	r.Batches++
	r.Entries += len(entries)
	for i, e := range entries {
		r.noteBytes(&e, sizes[i])
		if e.Seq == 0 {
			continue // legacy seq-less entry
		}
		if r.FirstSeq == 0 {
			r.FirstSeq = e.Seq
		}
		if e.Seq < r.LastSeq {
			r.NonMonotonic = true
		}
		r.LastSeq = e.Seq
	}
	r.GoodBytes += size
}

// noteBytes adds an entry to the byte ledger. A journal touches a few
// dozen (table, op) pairs, so a scan beats a map here.
func (r *JournalReport) noteBytes(e *Entry, n int) {
	for i := range r.ByTableOp {
		if o := &r.ByTableOp[i]; o.Table == e.Table && o.Op == e.Op {
			o.Entries++
			o.Bytes += int64(n)
			return
		}
	}
	r.ByTableOp = append(r.ByTableOp, OpBytes{Table: e.Table, Op: e.Op, Entries: 1, Bytes: int64(n)})
}

func verifyJSONJournal(b []byte, r *JournalReport) {
	rest := b
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			// Final line missing its newline: always a torn tail.
			r.TornBytes = int64(len(rest))
			return
		}
		line := rest[:nl]
		rest = rest[nl+1:]
		if len(line) == 0 {
			r.GoodBytes++
			continue
		}
		batch, sizes, err := decodeJSONBatch(line)
		if err != nil {
			// A tear is by construction the last line; anything after a
			// bad line means mid-file corruption (mirrors Replay).
			if len(rest) > 0 {
				r.MidFileCorrupt = true
			} else {
				r.TornBytes = int64(len(line)) + 1
			}
			return
		}
		r.noteBatch(batch, sizes, int64(len(line))+1)
	}
}

// decodeJSONBatch parses one journal line, and sizes each entry as its
// JSON text plus the separator that follows it.
func decodeJSONBatch(line []byte) ([]Entry, []int, error) {
	var raws []json.RawMessage
	if err := json.Unmarshal(line, &raws); err != nil {
		return nil, nil, err
	}
	batch, sizes := make([]Entry, len(raws)), make([]int, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &batch[i]); err != nil {
			return nil, nil, err
		}
		sizes[i] = len(raw) + 1
	}
	return batch, sizes, nil
}

func verifyBinJournal(b []byte, r *JournalReport) {
	if len(b) < len(binJournalMagic) || string(b[:len(binJournalMagic)]) != binJournalMagic {
		// Torn generation marker: the file died at creation.
		r.TornBytes = int64(len(b))
		return
	}
	r.GoodBytes = int64(len(binJournalMagic))
	rest := b[len(binJournalMagic):]
	for len(rest) > 0 {
		if len(rest) < binRecordHdrLen {
			r.TornBytes = int64(len(rest))
			return
		}
		n, ok := recordLen(rest)
		if !ok || len(rest) < binRecordHdrLen+int(n) {
			r.TornBytes = int64(len(rest))
			return
		}
		var sizes []int
		entries, err := decodeRecord(rest, rest[binRecordHdrLen:binRecordHdrLen+int(n)], &sizes)
		if err != nil {
			// Mirror Replay: only a tear if no intact record follows.
			if binRecordFollows(rest[binRecordHdrLen+int(n):]) {
				r.MidFileCorrupt = true
			} else {
				r.TornBytes = int64(len(rest))
			}
			return
		}
		r.noteBatch(entries, sizes, int64(binRecordHdrLen)+int64(n))
		rest = rest[binRecordHdrLen+int(n):]
	}
}

// binRecordFollows reports whether buf opens with one complete,
// CRC-clean bin1 record.
func binRecordFollows(buf []byte) bool {
	if len(buf) < binRecordHdrLen {
		return false
	}
	n, ok := recordLen(buf)
	return ok && len(buf) >= binRecordHdrLen+int(n) && recordIntact(buf, buf[binRecordHdrLen:binRecordHdrLen+int(n)])
}

// CheckpointReport is the verdict on one checkpoint generation file.
type CheckpointReport struct {
	Path   string `json:"path"`
	Exists bool   `json:"exists"`
	OK     bool   `json:"ok"`
	Legacy bool   `json:"legacy,omitempty"`
	Seq    uint64 `json:"seq"`
	Size   int64  `json:"size"`
	Detail string `json:"detail,omitempty"` // failure reason when !OK
}

// Verdict is the operator-facing one-liner.
func (r *CheckpointReport) Verdict() string {
	switch {
	case !r.Exists:
		return "absent"
	case !r.OK:
		return "CORRUPT " + r.Detail
	case r.Legacy:
		return fmt.Sprintf("OK seq %d (legacy headerless format, %d bytes)", r.Seq, r.Size)
	default:
		return fmt.Sprintf("OK seq %d (crc verified, %d bytes)", r.Seq, r.Size)
	}
}

// VerifyCheckpoint loads and verifies one checkpoint generation file.
func VerifyCheckpoint(fsys FS, path string) *CheckpointReport {
	r := &CheckpointReport{Path: path}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if !os.IsNotExist(err) {
			r.Exists, r.Detail = true, err.Error()
		}
		return r
	}
	defer f.Close()
	r.Exists = true
	b, err := io.ReadAll(f)
	if err != nil {
		r.Detail = err.Error()
		return r
	}
	r.Size = int64(len(b))
	sn, legacy, err := decodeCheckpoint(b)
	if err != nil {
		r.Legacy = legacy
		r.Detail = strings.TrimPrefix(err.Error(), "db: checkpoint corrupt: ")
		return r
	}
	r.OK, r.Legacy, r.Seq = true, legacy, sn.Seq
	return r
}

// StoreFsck is the full offline verdict for one store: its journal and
// every checkpoint generation, plus the boot decision the fallback
// chain would make.
type StoreFsck struct {
	Name        string              `json:"name"`
	Journal     *JournalReport      `json:"journal"`
	Generations []*CheckpointReport `json:"generations"`
	// BootSource names what OpenWithCheckpoint would restore from:
	// "checkpoint <path>", "journal replay", or "NONE".
	BootSource string `json:"boot_source"`
	// Bootable is false when no intact source of history remains.
	Bootable bool `json:"bootable"`
}

// FsckStore runs the offline walk for one store (journal path + its
// checkpoint base path), mirroring OpenWithCheckpointFS's fallback
// decision without opening the store.
func FsckStore(fsys FS, name, walPath, ckptPath string) (*StoreFsck, error) {
	jr, err := VerifyJournal(fsys, walPath)
	if err != nil {
		if !os.IsNotExist(err) {
			return nil, err
		}
		jr = &JournalReport{Path: walPath, Codec: "empty"}
	}
	out := &StoreFsck{Name: name, Journal: jr}
	gens := []*CheckpointReport{
		VerifyCheckpoint(fsys, ckptPath),
		VerifyCheckpoint(fsys, ckptPath+".1"),
	}
	out.Generations = gens
	if q := VerifyCheckpoint(fsys, ckptPath+".corrupt"); q.Exists {
		out.Generations = append(out.Generations, q)
	}

	haveEntries := jr.Entries > 0
	if jr.MidFileCorrupt || jr.NonMonotonic {
		// A corrupted journal refuses to open regardless of checkpoints:
		// the tail past the corruption may hold acked history.
		out.BootSource, out.Bootable = "NONE", false
		return out, nil
	}
	newestExists := gens[0].Exists
	for i, g := range gens[:2] {
		if !g.OK {
			continue
		}
		if haveEntries && jr.FirstSeq > g.Seq+1 {
			continue // journal compacted past this generation
		}
		if !haveEntries && i > 0 && newestExists {
			continue // span since the older generation unprovable
		}
		out.BootSource, out.Bootable = "checkpoint "+g.Path, true
		return out, nil
	}
	if !haveEntries || jr.FirstSeq <= 1 {
		if !haveEntries && (gens[0].Exists && !gens[0].OK || gens[1].Exists && !gens[1].OK) {
			out.BootSource, out.Bootable = "NONE", false
			return out, nil
		}
		out.BootSource, out.Bootable = "journal replay", true
		return out, nil
	}
	out.BootSource, out.Bootable = "NONE", false
	return out, nil
}
