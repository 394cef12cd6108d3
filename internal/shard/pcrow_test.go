package shard

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/wire"
)

var pcDate = time.Date(2026, 10, 19, 21, 43, 44, 872636674, time.UTC)

// TestPCRecordRoundTrips: the outbox row's bin1 value carries every
// field but the GID and transaction ID, which the entry key holds.
func TestPCRecordRoundTrips(t *testing.T) {
	for _, rec := range []*pcRecord{
		{TxID: 9, From: "01-0001-00000001", To: "01-0001-00000002", Amount: currency.FromG(20), State: pcCommitted, Date: pcDate},
		{TxID: 14, From: "01-0001-00000001", To: "01-0001-00000002", Amount: currency.FromG(5), FromLocked: true,
			RUR: bytes.Repeat([]byte{0, '{', 0xff}, 200), State: pcCommitted, Date: pcDate},
		{TxID: 1 << 60, From: "01-0001-00000002", To: "01-0001-00000001", Amount: 1, Cancelled: true, State: pcPrepared, Date: pcDate},
		{TxID: 3, From: "a", To: "b", Amount: 1, FromLocked: true, Cancelled: true, State: pcAborted, Date: pcDate},
	} {
		rec.GID = gidFor(rec.TxID)
		raw, err := rec.encode()
		if err != nil {
			t.Fatal(err)
		}
		if raw[0] != wire.RowBin1 || bytes.Contains(raw, []byte(rec.GID)) {
			t.Fatalf("pc record %s: % x", rec.GID, raw)
		}
		got, err := decodePC(rec.GID, raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, rec)
		}
	}
	for name, rec := range map[string]*pcRecord{
		"unknown state": {State: "limbo", Date: pcDate},
		"dated 2300":    {State: pcCommitted, Date: time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)},
		"long account":  {State: pcCommitted, Date: pcDate, From: accounts.ID(strings.Repeat("1", 1<<16))},
	} {
		if _, err := rec.encode(); err == nil {
			t.Errorf("%s encoded", name)
		}
	}
}

// TestParentPCRecordsDecode: outbox rows the parent commit wrote as JSON
// (from node/testdata/ledger_db22fd7) decode as they always did.
func TestParentPCRecordsDecode(t *testing.T) {
	for gid, c := range map[string]struct {
		raw  string
		want pcRecord
	}{
		"00000000000000000014": {
			`{"gid":"00000000000000000014","txid":14,"from":"01-0001-00000001","to":"01-0001-00000002","amount":"5","from_locked":true,"rur":"aW4tZmxpZ2h0LXJ1cg==","state":"committed","date":"2026-10-19T21:43:44.872636674Z"}`,
			pcRecord{GID: "00000000000000000014", TxID: 14, From: "01-0001-00000001", To: "01-0001-00000002", Amount: currency.FromG(5),
				FromLocked: true, RUR: []byte("in-flight-rur"), State: pcCommitted, Date: pcDate},
		},
		"00000000000000000012": {
			`{"gid":"00000000000000000012","txid":12,"from":"01-0001-00000002","to":"01-0001-00000001","amount":"20","cancelled":true,"state":"committed","date":"2026-10-19T21:43:44.872636674Z"}`,
			pcRecord{GID: "00000000000000000012", TxID: 12, From: "01-0001-00000002", To: "01-0001-00000001", Amount: currency.FromG(20),
				Cancelled: true, State: pcCommitted, Date: pcDate},
		},
	} {
		got, err := decodePC(gid, []byte(c.raw))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, c.want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", gid, *got, c.want)
		}
	}
}

// FuzzPCRecord: decoding arbitrary bytes never panics, nor does
// re-encoding a legacy row that decoded; a bin1 value that decodes
// re-encodes to the same bytes, so encode∘decode is the identity on
// every valid bin1 row.
func FuzzPCRecord(f *testing.F) {
	rec := &pcRecord{GID: gidFor(14), TxID: 14, From: "a", To: "b", Amount: 5, FromLocked: true, RUR: []byte{0, 1}, State: pcCommitted, Date: pcDate}
	raw, err := rec.encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec.GID, raw)
	f.Add(gidFor(12), []byte(`{"gid":"00000000000000000012","txid":12,"amount":"20","cancelled":true,"state":"committed","date":"2026-10-19T21:43:44Z"}`))
	f.Fuzz(func(t *testing.T, gid string, raw []byte) {
		rec, err := decodePC(gid, raw)
		if err != nil {
			return
		}
		again, err := rec.encode()
		if raw[0] != wire.RowBin1 {
			return // legacy JSON: bin1 may refuse what it holds (an unknown state)
		}
		if err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("re-encode = % x, %v; want % x", again, err, raw)
		}
	})
}
