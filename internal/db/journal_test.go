package db

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestMemJournalReplayRebuildsState(t *testing.T) {
	j := NewMemJournal()
	s, err := Open(j)
	if err != nil {
		t.Fatal(err)
	}
	must(t, s.CreateTable("t"))
	must(t, s.Update(func(tx *Tx) error {
		must(t, tx.Insert("t", "a", []byte("1")))
		must(t, tx.Insert("t", "b", []byte("2")))
		return tx.Delete("t", "a")
	}))
	must(t, s.Update(func(tx *Tx) error { return tx.Put("t", "b", []byte("3")) }))

	s2, err := Open(j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get("t", "a"); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("replayed store has deleted record: %v", err)
	}
	v, err := s2.Get("t", "b")
	if err != nil || string(v) != "3" {
		t.Fatalf("replayed value = %q, %v", v, err)
	}
}

func TestJournalFailureAbortsCommit(t *testing.T) {
	j := NewFailingMemJournal(1) // table create succeeds, first tx batch fails
	s, err := Open(j)
	if err != nil {
		t.Fatal(err)
	}
	must(t, s.CreateTable("t"))
	err = s.Update(func(tx *Tx) error { return tx.Insert("t", "a", []byte("1")) })
	if err == nil {
		t.Fatal("commit with failing journal succeeded")
	}
	// In-memory state must be unchanged (write-ahead discipline).
	if _, err := s.Get("t", "a"); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("failed commit mutated state: %v", err)
	}
}

func TestFileJournalDurability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	j, err := OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(j)
	if err != nil {
		t.Fatal(err)
	}
	must(t, s.CreateTable("acct"))
	must(t, s.Update(func(tx *Tx) error { return tx.Insert("acct", "a1", []byte("balance=10")) }))
	must(t, s.Close())

	j2, err := OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(j2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, err := s2.Get("acct", "a1")
	if err != nil || string(v) != "balance=10" {
		t.Fatalf("recovered = %q, %v", v, err)
	}
	// And the recovered store can continue writing.
	must(t, s2.Update(func(tx *Tx) error { return tx.Put("acct", "a1", []byte("balance=20")) }))
}

func TestFileJournalTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	j, err := OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(j)
	if err != nil {
		t.Fatal(err)
	}
	must(t, s.CreateTable("t"))
	must(t, s.Update(func(tx *Tx) error { return tx.Insert("t", "good", []byte("1")) }))
	must(t, s.Close())

	// Simulate a crash mid-append: truncated garbage at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`[{"seq":99,"op":"put","table":"t","key":"torn","va`); err != nil {
		t.Fatal(err)
	}
	must(t, f.Close())

	j2, err := OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(j2)
	if err != nil {
		t.Fatalf("replay with torn tail failed: %v", err)
	}
	defer s2.Close()
	if _, err := s2.Get("t", "good"); err != nil {
		t.Fatalf("pre-crash record lost: %v", err)
	}
	if _, err := s2.Get("t", "torn"); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("torn record applied: %v", err)
	}
}

func TestFileJournalSyncMode(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenFileJournal(filepath.Join(dir, "wal"), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Entry{Seq: 1, Op: OpCreateTable, Table: "t"}); err != nil {
		t.Fatal(err)
	}
	must(t, j.Close())
	if err := j.Append(Entry{Seq: 2, Op: OpCreateTable, Table: "u"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v", err)
	}
	if err := j.Replay(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("replay after close = %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := MustOpenMemory()
	must(t, s.CreateTable("a"))
	must(t, s.CreateTable("b"))
	must(t, s.Update(func(tx *Tx) error {
		must(t, tx.Insert("a", "k1", []byte("v1")))
		return tx.Insert("b", "k2", []byte("v2"))
	}))
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sn2, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFromSnapshot(sn2, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s2.Get("a", "k1")
	if err != nil || string(v) != "v1" {
		t.Fatalf("restored a/k1 = %q, %v", v, err)
	}
	v, err = s2.Get("b", "k2")
	if err != nil || string(v) != "v2" {
		t.Fatalf("restored b/k2 = %q, %v", v, err)
	}
	// Snapshot isolation: mutating the source store after Snapshot()
	// must not affect the snapshot.
	must(t, s.Update(func(tx *Tx) error { return tx.Put("a", "k1", []byte("mutated")) }))
	s3, err := OpenFromSnapshot(sn, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ = s3.Get("a", "k1")
	if string(v) != "v1" {
		t.Fatalf("snapshot not isolated from source: %q", v)
	}
}

func TestSnapshotPlusJournalTail(t *testing.T) {
	j := NewMemJournal()
	s, err := Open(j)
	if err != nil {
		t.Fatal(err)
	}
	must(t, s.CreateTable("t"))
	must(t, s.Update(func(tx *Tx) error { return tx.Insert("t", "pre", []byte("1")) }))
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	must(t, s.Update(func(tx *Tx) error { return tx.Insert("t", "post", []byte("2")) }))

	s2, err := OpenFromSnapshot(sn, j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get("t", "pre"); err != nil {
		t.Fatalf("snapshot record lost: %v", err)
	}
	v, err := s2.Get("t", "post")
	if err != nil || string(v) != "2" {
		t.Fatalf("journal tail not applied: %q, %v", v, err)
	}
}

func TestReadSnapshotErrors(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewBufferString("{bad")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestSaveSnapshotFile(t *testing.T) {
	s := MustOpenMemory()
	must(t, s.CreateTable("t"))
	must(t, s.Update(func(tx *Tx) error { return tx.Insert("t", "k", []byte("v")) }))
	path := filepath.Join(t.TempDir(), "snap.json")
	must(t, s.SaveSnapshotFile(path))
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sn, err := ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(sn.Tables["t"]["k"]) != "v" {
		t.Fatalf("snapshot content wrong: %+v", sn.Tables)
	}
}

// Property: for any sequence of puts/deletes, a journal-replayed store has
// identical contents to the live store.
func TestReplayEquivalenceProperty(t *testing.T) {
	type step struct {
		Key   uint8
		Del   bool
		Value uint16
	}
	f := func(steps []step) bool {
		j := NewMemJournal()
		s, err := Open(j)
		if err != nil {
			return false
		}
		if err := s.CreateTable("t"); err != nil {
			return false
		}
		for _, st := range steps {
			k := fmt.Sprintf("k%d", st.Key%16)
			_ = s.Update(func(tx *Tx) error {
				if st.Del {
					// ignore delete-missing errors by checking first
					if ok, _ := tx.Exists("t", k); ok {
						return tx.Delete("t", k)
					}
					return nil
				}
				return tx.Put("t", k, []byte{byte(st.Value), byte(st.Value >> 8)})
			})
		}
		replayed, err := Open(j)
		if err != nil {
			return false
		}
		same := true
		_ = s.Scan("t", func(k string, v []byte) bool {
			rv, err := replayed.Get("t", k)
			if err != nil || !bytes.Equal(rv, v) {
				same = false
				return false
			}
			return true
		})
		n1, _ := s.Count("t")
		n2, _ := replayed.Count("t")
		return same && n1 == n2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayRestoresSeqWithoutDuplicates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	j, err := OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(j)
	if err != nil {
		t.Fatal(err)
	}
	must(t, s.CreateTable("t"))
	for i := 0; i < 5; i++ {
		must(t, s.Update(func(tx *Tx) error { return tx.Put("t", "k", []byte{byte(i)}) }))
	}
	must(t, s.Close())

	// Reopen and write more; then inspect the raw journal: every WAL
	// sequence number must appear exactly once (a replayed store that
	// forgot its seq would re-issue 1, 2, 3...).
	j2, err := OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(j2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		must(t, s2.Update(func(tx *Tx) error { return tx.Put("t", "k", []byte{byte(i)}) }))
	}
	must(t, s2.Close())

	j3, err := OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	seen := make(map[uint64]int)
	var maxSeq uint64
	must(t, j3.Replay(func(e Entry) error {
		seen[e.Seq]++
		if e.Seq > maxSeq {
			maxSeq = e.Seq
		}
		return nil
	}))
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("seq %d appears %d times", seq, n)
		}
	}
	if len(seen) != int(maxSeq) {
		t.Fatalf("%d distinct seqs, max %d: gaps or duplicates", len(seen), maxSeq)
	}
}

func TestGroupCommitBatchesAtomicOnReplay(t *testing.T) {
	// Concurrent committers share flushes, but each transaction's batch
	// must stay its own replay unit: replaying must yield exactly the
	// committed transactions, never a partial one.
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	j, err := OpenFileJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(j)
	if err != nil {
		t.Fatal(err)
	}
	must(t, s.CreateTable("t"))
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				a := fmt.Sprintf("w%d-a%d", w, i)
				b := fmt.Sprintf("w%d-b%d", w, i)
				_ = s.Update(func(tx *Tx) error {
					if err := tx.Put("t", a, []byte{1}); err != nil {
						return err
					}
					return tx.Put("t", b, []byte{2})
				})
			}
		}(w)
	}
	wg.Wait()
	must(t, s.Close())

	j2, err := OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Open(j2)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	// Batch atomicity: the a-row and b-row of each transaction exist
	// together or not at all.
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			_, errA := replayed.Get("t", fmt.Sprintf("w%d-a%d", w, i))
			_, errB := replayed.Get("t", fmt.Sprintf("w%d-b%d", w, i))
			if (errA == nil) != (errB == nil) {
				t.Fatalf("torn transaction w%d/%d: a=%v b=%v", w, i, errA, errB)
			}
		}
	}
	n, err := replayed.Count("t")
	if err != nil {
		t.Fatal(err)
	}
	if n != workers*perWorker*2 {
		t.Fatalf("replayed %d rows, want %d", n, workers*perWorker*2)
	}
}

func TestSeedFormatJournalReplaysIdentically(t *testing.T) {
	// A journal written by the seed implementation (json.Marshal of the
	// batch slice + '\n' per line, one line per transaction) must replay
	// into the new store byte-for-byte: same rows, same values, same
	// restored sequence counter.
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	lines := []string{
		`[{"seq":1,"op":"mktable","table":"accounts"}]`,
		`[{"seq":2,"op":"put","table":"accounts","key":"a1","value":"eyJiIjoxMH0="},{"seq":3,"op":"put","table":"accounts","key":"a2","value":"eyJiIjoyMH0="}]`,
		`[{"seq":4,"op":"del","table":"accounts","key":"a2"},{"seq":5,"op":"put","table":"accounts","key":"a1","value":"eyJiIjozMH0="}]`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	j, err := OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(j)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("accounts", "a1")
	if err != nil || string(v) != `{"b":30}` {
		t.Fatalf("a1 = %q, %v", v, err)
	}
	if _, err := s.Get("accounts", "a2"); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("deleted a2 still present: %v", err)
	}
	// Continue writing through the new engine; the next entry must take
	// seq 6 (replay restored the counter) and the appended line must use
	// the same NDJSON batch framing the seed wrote.
	must(t, s.Update(func(tx *Tx) error { return tx.Put("accounts", "a3", []byte(`{"b":40}`)) }))
	must(t, s.Close())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(lines, "\n") + "\n" +
		`[{"seq":6,"op":"put","table":"accounts","key":"a3","value":"eyJiIjo0MH0="}]` + "\n"
	if string(raw) != want {
		t.Fatalf("journal bytes diverge from seed format:\n got: %q\nwant: %q", raw, want)
	}
}

// failingGroupJournal stages successfully but fails at flush time —
// the shape of a disk-full fsync error after the in-memory apply.
type failingGroupJournal struct {
	memJournal
	failWait bool
}

func (j *failingGroupJournal) Stage(entries []Entry) (func() error, error) {
	if err := j.AppendBatch(entries); err != nil {
		return nil, err
	}
	if j.failWait {
		return func() error { return errors.New("db: injected flush failure") }, nil
	}
	return func() error { return nil }, nil
}

func TestFlushFailureAfterApplyFailStopsStore(t *testing.T) {
	j := &failingGroupJournal{memJournal: memJournal{failAt: -1}}
	s, err := Open(j)
	if err != nil {
		t.Fatal(err)
	}
	must(t, s.CreateTable("t"))
	must(t, s.Update(func(tx *Tx) error { return tx.Put("t", "k", []byte("ok")) }))

	// From here on, every flush fails after the apply: the commit must
	// report the error AND the store must refuse further service —
	// its memory now runs ahead of the journal.
	j.failWait = true
	err = s.Update(func(tx *Tx) error { return tx.Put("t", "k", []byte("lost")) })
	if err == nil {
		t.Fatal("commit with failing flush succeeded")
	}
	if _, err := s.Get("t", "k"); err == nil {
		t.Fatal("poisoned store still serving reads")
	}
	if _, err := s.Begin(); err == nil {
		t.Fatal("poisoned store still accepting transactions")
	}
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("poisoned store still snapshotting non-durable state")
	}
}

func TestReplayTruncatesTornTailSoAppendsSurviveNextReplay(t *testing.T) {
	for name, tail := range map[string]string{
		"cut mid-line": `[{"seq":3,"op":"put","table":"t","key":"torn","va`,
		// The whole batch made it except its newline: it parses, but it was
		// never acknowledged, and applying it would glue the next append to
		// its line (diskfault soak seeds 543, 880, 2700).
		"cut before the newline": `[{"seq":3,"op":"put","table":"t","key":"torn","value":"eA=="}]`,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.ndjson")
			j, err := OpenFileJournal(path, false)
			if err != nil {
				t.Fatal(err)
			}
			must(t, j.AppendBatch([]Entry{{Seq: 1, Op: OpCreateTable, Table: "t"}}))
			must(t, j.AppendBatch([]Entry{{Seq: 2, Op: OpPut, Table: "t", Key: "a", Value: []byte("1")}}))
			must(t, j.Close())
			// Crash left a torn line at the tail.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tail); err != nil {
				t.Fatal(err)
			}
			must(t, f.Close())

			// Restart 1: replay discards (and truncates) the tear, then acks a
			// new batch appended after it.
			j2, err := OpenFileJournal(path, false)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(j2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get("t", "torn"); err == nil {
				t.Fatal("torn entry applied")
			}
			must(t, s.Update(func(tx *Tx) error { return tx.Put("t", "b", []byte("2")) }))
			must(t, s.Close())

			// Restart 2: the post-crash batch must replay — it would be buried
			// behind the torn line if the tear were left in place.
			j3, err := OpenFileJournal(path, false)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := Open(j3)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			v, err := s2.Get("t", "b")
			if err != nil || string(v) != "2" {
				t.Fatalf("post-crash acked write lost across replays: %q, %v", v, err)
			}
			if _, err := s2.Get("t", "torn"); err == nil {
				t.Fatal("torn entry resurrected")
			}
		})
	}
}

func TestReplayRefusesMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	j, err := OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	must(t, j.AppendBatch([]Entry{{Seq: 1, Op: OpCreateTable, Table: "t"}}))
	must(t, j.AppendBatch([]Entry{{Seq: 2, Op: OpPut, Table: "t", Key: "a", Value: []byte("1")}}))
	must(t, j.AppendBatch([]Entry{{Seq: 3, Op: OpPut, Table: "t", Key: "b", Value: []byte("2")}}))
	must(t, j.Close())
	// Flip the middle line into garbage, leaving the intact line after
	// it in place — disk corruption, not a crash tear.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	lines[1] = []byte("{CORRUPT\n")
	must(t, os.WriteFile(path, bytes.Join(lines, nil), 0o600))

	j2, err := OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(j2); err == nil {
		t.Fatal("open over mid-file corruption succeeded (would have truncated acked batches)")
	}
	// The intact tail must still be on disk for manual repair.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(after, []byte(`"key":"b"`)) {
		t.Fatal("intact batch after the corruption was destroyed")
	}
}

func TestCheckpointCompactCycle(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "ledger.wal")
	ckpt := filepath.Join(dir, "ledger.ckpt")

	j, err := OpenFileJournal(wal, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenWithCheckpoint(ckpt, j)
	if err != nil {
		t.Fatal(err)
	}
	must(t, s.CreateTable("t"))
	must(t, s.Update(func(tx *Tx) error { return tx.Put("t", "old", []byte("o")) }))
	if _, err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	// The gridbankd startup sequence: checkpoint, then drop the journal
	// it covers.
	if err := j.(CompactableJournal).Compact(); err != nil {
		t.Fatal(err)
	}
	must(t, s.Update(func(tx *Tx) error { return tx.Put("t", "new", []byte("n")) }))
	must(t, s.Close())
	if fi, err := os.Stat(wal); err != nil || fi.Size() == 0 {
		t.Fatalf("journal after compact+write: %v, size %d (want only the post-checkpoint tail)", err, fi.Size())
	}

	j2, err := OpenFileJournal(wal, false)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenWithCheckpoint(ckpt, j2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for k, want := range map[string]string{"old": "o", "new": "n"} {
		v, err := s2.Get("t", k)
		if err != nil || string(v) != want {
			t.Fatalf("after checkpoint+compact restart, %s = %q, %v", k, v, err)
		}
	}
}
