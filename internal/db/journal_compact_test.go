package db

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gridbank/internal/wire"
)

// appendLegacyRecord appends a bin1 record in the fixed-width layout
// older binaries wrote (magic 0xBE).
func appendLegacyRecord(t *testing.T, buf *bytes.Buffer, entries []Entry) {
	t.Helper()
	var payload bytes.Buffer
	if err := AppendEntriesBinary(&payload, entries); err != nil {
		t.Fatal(err)
	}
	var hdr [binRecordHdrLen]byte
	hdr[0] = binRecordMagic
	binary.BigEndian.PutUint32(hdr[1:5], uint32(payload.Len()))
	binary.BigEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload.Bytes()))
	buf.Write(hdr[:])
	buf.Write(payload.Bytes())
}

func replayAll(t *testing.T, path string) ([]Entry, error) {
	t.Helper()
	j, err := OpenFileJournalCodec(path, false, wire.CodecBin1)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var got []Entry
	err = j.Replay(func(e Entry) error { got = append(got, e); return nil })
	return got, err
}

var compactHistory = [][]Entry{
	{{Seq: 1, Op: OpCreateTable, Table: "accounts"}, {Seq: 2, Op: OpCreateTable, Table: "transfers"}},
	{{Seq: 3, Op: OpPut, Table: "accounts", Key: "01-0001-00000001", Value: []byte{0xB1, 0, 1, 2}},
		{Seq: 4, Op: OpPut, Table: "transfers", Key: "00000000000000000007", Value: []byte("x")},
		{Seq: 5, Op: OpPut, Table: "accounts", Key: "01-0001-00000002", Value: []byte{0xB1, 0, 3}}},
	{{Seq: 6, Op: OpDelete, Table: "transfers", Key: "00000000000000000007"}, {Seq: 7, Op: "exotic", Table: "accounts", Key: "k"}},
	{{Seq: 300, Op: OpPut, Table: "accounts", Key: "01-0001-00000001", Value: bytes.Repeat([]byte{7}, 300)}},
}

func flatten(batches [][]Entry) []Entry {
	var out []Entry
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// TestCompactRecordsFollowLegacyRecords: a bin1 generation that holds
// the fixed-width records an older binary wrote, then compact ones, replays
// every entry in order with no Compact in between — and fsck's byte
// ledger, sized by each record's own decoder, covers the file exactly.
func TestCompactRecordsFollowLegacyRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.wal")
	var old bytes.Buffer
	old.WriteString(binJournalMagic)
	for _, b := range compactHistory[:2] {
		appendLegacyRecord(t, &old, b)
	}
	if err := os.WriteFile(path, old.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	j, err := OpenFileJournalCodec(path, false, wire.CodecJSON) // the file's generation wins
	if err != nil {
		t.Fatal(err)
	}
	must(t, j.Replay(func(Entry) error { return nil }))
	for _, b := range compactHistory[2:] {
		must(t, j.AppendBatch(b))
	}
	must(t, j.Close())

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tail := raw[old.Len():]
	if tail[0] != compactRecordMagic {
		t.Fatalf("appended record opens with 0x%02x, want the compact magic", tail[0])
	}
	got, err := replayAll(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if want := flatten(compactHistory); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay:\n got %+v\nwant %+v", got, want)
	}

	rep, err := VerifyJournal(OSFS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.TornBytes != 0 || rep.Batches != len(compactHistory) || rep.GoodBytes != int64(len(raw)) {
		t.Fatalf("fsck: %+v", rep)
	}
	// Framing: the file marker, every record's header, and its entry
	// count — 4 bytes fixed-width, one uvarint byte compact.
	sum := int64(len(binJournalMagic)) + int64(rep.Batches)*binRecordHdrLen + 2*4 + 2*1
	for _, o := range rep.ByTableOp {
		sum += o.Bytes
	}
	if sum != int64(len(raw)) {
		t.Fatalf("byte ledger + framing = %d B, file %d B: %+v", sum, len(raw), rep.ByTableOp)
	}
}

// TestCompactEntrySizes pins the compact layout's arithmetic: the first
// entry of a record spells its table out, later ones name its slot, and
// every entry after the first spends one byte on its seq.
func TestCompactEntrySizes(t *testing.T) {
	var buf bytes.Buffer
	must(t, appendEntriesCompact(&buf, compactHistory[1]))
	var sizes []int
	got, err := decodeEntriesCompact(buf.Bytes(), &sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, compactHistory[1]) {
		t.Fatalf("decode:\n got %+v\nwant %+v", got, compactHistory[1])
	}
	// seq op slot [name] key value
	want := []int{
		1 + 1 + 1 + 1 + len("accounts") + 1 + 16 + 1 + 4,
		1 + 1 + 1 + 1 + len("transfers") + 1 + 20 + 1 + 1,
		1 + 1 + 1 + 1 + 16 + 1 + 3,
	}
	if !reflect.DeepEqual(sizes, want) || buf.Len() != 1+want[0]+want[1]+want[2] {
		t.Fatalf("entry sizes %v (payload %d B), want %v", sizes, buf.Len(), want)
	}
	// Replica frames keep the fixed-width layout: same entries, more bytes.
	var fixed bytes.Buffer
	must(t, AppendEntriesBinary(&fixed, compactHistory[1]))
	if fixed.Len() <= buf.Len() {
		t.Fatalf("compact %d B is not below fixed-width %d B", buf.Len(), fixed.Len())
	}
	if err := appendEntriesCompact(&buf, []Entry{{Seq: 5}, {Seq: 4}}); err == nil {
		t.Fatal("descending seqs in one batch encoded")
	}
}

func writeCompactJournal(t *testing.T, path string) []byte {
	t.Helper()
	j, err := OpenFileJournalCodec(path, false, wire.CodecBin1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range compactHistory {
		must(t, j.AppendBatch(b))
	}
	must(t, j.Close())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCompactTornTailTruncated: a compact record cut short by a crash
// is truncated away; the intact prefix replays, and the next append
// lands where it belongs.
func TestCompactTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.wal")
	raw := writeCompactJournal(t, path)
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o600); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyJournal(OSFS(), path)
	if err != nil || !rep.OK() || rep.TornBytes == 0 {
		t.Fatalf("fsck of a torn tail: %+v, %v", rep, err)
	}
	got, err := replayAll(t, path)
	if err != nil {
		t.Fatal(err)
	}
	want := flatten(compactHistory[:len(compactHistory)-1])
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay of torn journal:\n got %+v\nwant %+v", got, want)
	}
	j, err := OpenFileJournalCodec(path, false, wire.CodecBin1)
	if err != nil {
		t.Fatal(err)
	}
	must(t, j.Replay(func(Entry) error { return nil }))
	last := compactHistory[len(compactHistory)-1]
	must(t, j.AppendBatch(last))
	must(t, j.Close())
	if got, err = replayAll(t, path); err != nil || !reflect.DeepEqual(got, flatten(compactHistory)) {
		t.Fatalf("replay after healing = %+v, %v", got, err)
	}
}

// TestCompactCorruptionMidFileRefuses: a compact record failing its CRC
// with an intact record after it is corruption, not a tear — replay
// and fsck refuse rather than truncate acked history.
func TestCompactCorruptionMidFileRefuses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.wal")
	raw := writeCompactJournal(t, path)
	raw[len(binJournalMagic)+binRecordHdrLen+4] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := replayAll(t, path); err == nil || !strings.Contains(err.Error(), "corrupted mid-file") {
		t.Fatalf("mid-file corruption replayed: %v", err)
	}
	if rep, err := VerifyJournal(OSFS(), path); err != nil || !rep.MidFileCorrupt {
		t.Fatalf("fsck: %+v, %v", rep, err)
	}
}

// FuzzCompactEntries: decoding arbitrary bytes never panics, and a batch
// of well-formed entries — consecutive seqs, tables repeating so the
// dictionary is used — survives encode∘decode.
func FuzzCompactEntries(f *testing.F) {
	var seed bytes.Buffer
	if err := appendEntriesCompact(&seed, compactHistory[1]); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), uint64(3), "put", "accounts", "01-0001-00000001", []byte{0xB1, 0}, uint8(3))
	f.Add([]byte{1, 0, 2, 1, 0, 0}, uint64(1<<40), "exotic", "", "", []byte(nil), uint8(0))
	f.Fuzz(func(t *testing.T, payload []byte, seq uint64, op, table, key string, value []byte, n uint8) {
		_, _ = decodeEntriesCompact(payload, nil)

		in := make([]Entry, int(n%5)+1)
		for i := range in {
			in[i] = Entry{Seq: seq + uint64(i), Op: Op(op), Table: table, Key: key, Value: value}
			if i%2 == 1 {
				in[i].Table, in[i].Op = "t2", OpPut
			}
			if len(in[i].Value) == 0 {
				in[i].Value = nil
			}
		}
		var buf bytes.Buffer
		if err := appendEntriesCompact(&buf, in); err != nil {
			return // seq wrapped past 2^64: not a batch a store writes
		}
		out, err := decodeEntriesCompact(buf.Bytes(), nil)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
		}
	})
}
