package usage

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gridbank/internal/db"
	"gridbank/internal/shard"
)

// TestSpoolWrittenByParentCommitRecovers boots the pipeline over a spool
// journal the pre-engine pipeline wrote (testdata/spool_3b179ae): the
// rows must land in the right queue, parked count and allocator state,
// and the row encoding must not have moved by a byte.
func TestSpoolWrittenByParentCommitRecovers(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "spool_3b179ae", "usage.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "usage.wal") // replay may repair in place: work on a copy
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
	p, err := New(Config{Ledger: WrapSharded(led), Spool: spool, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if st := p.Status(); st.Pending != 2 || st.QueueDepth != 2 || st.Failed != 1 {
		t.Errorf("recovered state = %+v, want 2 pending (job-pending, job-pinned) and 1 parked", st)
	}
	if next := led.AllocTxID(); next <= 42 {
		t.Errorf("allocator hands out %d, not seeded above the pinned 42", next)
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
		if row.SpoolKey() != key {
			t.Errorf("row %s reports key %q", key, row.SpoolKey())
		}
		rows[key] = &row
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows["job-pending"].Parked() || rows["job-pinned"].PinTxID != 42 || !rows["job-parked"].Parked() {
		t.Fatalf("fixture rows = %+v", rows)
	}
	// Parking writes the same bytes the parent wrote.
	parked := *rows["job-parked"]
	parked.State, parked.Reason = statePending, ""
	parked.Park(rows["job-parked"].Reason)
	was, _ := spool.Get(tableSpool, "job-parked")
	if now, _ := json.Marshal(&parked); !bytes.Equal(now, was) {
		t.Errorf("parked row encodes differently:\n was %s\n now %s", was, now)
	}
}
