package micropay

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gridbank/internal/db"
	"gridbank/internal/shard"
	"gridbank/internal/usage"
	"gridbank/internal/wire"
)

// TestSpoolWrittenByParentCommitRecovers boots the pipeline over a spool
// journal the pre-engine pipeline wrote (testdata/spool_3b179ae): the
// claims must land in the right queue and parked count, every row must
// decode to what the parent read, and re-encoding it must write bin1
// that decodes back to the same row.
func TestSpoolWrittenByParentCommitRecovers(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "spool_3b179ae", "micropay.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "micropay.wal") // replay may repair in place: work on a copy
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	j, err := db.OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	spool, err := db.Open(j)
	if err != nil {
		t.Fatal(err)
	}
	led, err := shard.New([]*db.Store{db.MustOpenMemory(), db.MustOpenMemory()}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	red, err := NewRedeemer(usage.WrapSharded(led), nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Redeemer: red, FindAccount: led.FindByCertificate, Spool: spool, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if st := p.Status(); st.Pending != 1 || st.QueueDepth != 1 || st.Failed != 1 {
		t.Errorf("recovered state = %+v, want S/42 pending and P/7 parked", st)
	}
	rows := make(map[string]*spoolRow)
	err = spool.Scan(tableSpool, func(key string, value []byte) bool {
		row, err := decodeSpoolRow(key, value)
		if err != nil {
			t.Errorf("row %s: %v", key, err)
			return true
		}
		var parent spoolRow
		if err := json.Unmarshal(value, &parent); err != nil || !reflect.DeepEqual(row, &parent) {
			t.Errorf("row %s decodes to %+v, the parent read %+v (%v)", key, row, &parent, err)
		}
		assertBin1RoundTrip(t, key, row)
		if row.SpoolKey() != key || legacySpoolKey(row.Serial, row.Index) != key {
			t.Errorf("row %s reports key %q, derives %q", key, row.SpoolKey(), legacySpoolKey(row.Serial, row.Index))
		}
		rows[key] = row
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows["S/000000000042"].Parked() || !rows["P/000000000007"].Parked() {
		t.Fatalf("fixture rows = %+v", rows)
	}
	// Rows written before intake folded carry no count: one claim each.
	if got := rows["S/000000000042"].claims(); got != 1 {
		t.Errorf("legacy row stands for %d claims, want 1", got)
	}
	// Parking a pending copy writes the row the parent parked, in bin1.
	parked := *rows["P/000000000007"]
	parked.State, parked.Reason = statePending, ""
	parked.Park(rows["P/000000000007"].Reason)
	if !reflect.DeepEqual(&parked, rows["P/000000000007"]) {
		t.Errorf("parked copy = %+v, want %+v", &parked, rows["P/000000000007"])
	}
	assertBin1RoundTrip(t, "P/000000000007", &parked)
}

// assertBin1RoundTrip re-encodes a decoded row: the value must be bin1
// and decode back to the same row.
func assertBin1RoundTrip(t *testing.T, key string, row *spoolRow) {
	t.Helper()
	out, err := encodeSpoolRow(row)
	if err != nil || out[0] != wire.RowBin1 {
		t.Fatalf("row %s re-encodes to %q, %v", key, out, err)
	}
	if again, err := decodeSpoolRow(key, out); err != nil || !reflect.DeepEqual(again, row) {
		t.Errorf("row %s: bin1 decodes to %+v, %v; want %+v", key, again, err, row)
	}
}
