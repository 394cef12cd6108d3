package micropay

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gridbank/internal/db"
	"gridbank/internal/shard"
	"gridbank/internal/usage"
)

// TestSpoolWrittenByParentCommitRecovers boots the pipeline over a spool
// journal the pre-engine pipeline wrote (testdata/spool_3b179ae): the
// claims must land in the right queue and parked count, and the row
// encoding must not have moved by a byte.
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
		var row spoolRow
		if err := json.Unmarshal(value, &row); err != nil {
			t.Errorf("row %s: %v", key, err)
			return true
		}
		if again, _ := json.Marshal(&row); !bytes.Equal(again, value) {
			t.Errorf("row %s re-marshals differently:\n was %s\n now %s", key, value, again)
		}
		if row.SpoolKey() != key || spoolKey(row.Serial, row.Index) != key {
			t.Errorf("row %s reports key %q, derives %q", key, row.SpoolKey(), spoolKey(row.Serial, row.Index))
		}
		rows[key] = &row
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
	// Parking writes the same bytes the parent wrote.
	parked := *rows["P/000000000007"]
	parked.State, parked.Reason = statePending, ""
	parked.Park(rows["P/000000000007"].Reason)
	was, _ := spool.Get(tableSpool, "P/000000000007")
	if now, _ := json.Marshal(&parked); !bytes.Equal(now, was) {
		t.Errorf("parked row encodes differently:\n was %s\n now %s", was, now)
	}
}
