package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridbank/internal/db"
	"gridbank/internal/wire"
)

// buildStore writes a small store with a journal and one checkpoint
// into dir under the given name, then closes everything cleanly.
func buildStore(t *testing.T, dir, name string) {
	t.Helper()
	j, err := db.OpenFileJournal(filepath.Join(dir, name+".wal"), true)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	s, err := db.OpenWithCheckpoint(filepath.Join(dir, name+".ckpt"), j)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	if err := s.CreateTable("kv"); err != nil {
		t.Fatalf("create table: %v", err)
	}
	put := func(k, v string) {
		if err := s.Update(func(tx *db.Tx) error { return tx.Put("kv", k, []byte(v)) }); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	put("a", "1")
	put("b", "2")
	if _, err := s.Checkpoint(filepath.Join(dir, name+".ckpt")); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	put("c", "3") // post-checkpoint tail in the journal
	s.Close()
}

func TestFsckHealthyDataDir(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, "ledger-0")
	buildStore(t, dir, "usage")

	var out strings.Builder
	healthy, err := runFsck(&out, dir)
	if err != nil {
		t.Fatalf("runFsck: %v", err)
	}
	got := out.String()
	if !healthy {
		t.Fatalf("healthy dir reported unhealthy:\n%s", got)
	}
	for _, want := range []string{
		"store ledger-0:",
		"store usage:",
		"boot: checkpoint",
		"2 store(s), all bootable",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "CORRUPT") {
		t.Errorf("healthy dir reported corruption:\n%s", got)
	}
}

func TestFsckReportsCorruptCheckpointAndFallback(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, "ledger-0")
	// Second checkpoint rotates the first to .ckpt.1; then corrupt the
	// newest generation mid-body.
	j, err := db.OpenFileJournal(filepath.Join(dir, "ledger-0.wal"), true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.OpenWithCheckpoint(filepath.Join(dir, "ledger-0.ckpt"), j)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(tx *db.Tx) error { return tx.Put("kv", "d", []byte("4")) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(filepath.Join(dir, "ledger-0.ckpt")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	ckpt := filepath.Join(dir, "ledger-0.ckpt")
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(ckpt, b, 0o600); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	healthy, err := runFsck(&out, dir)
	if err != nil {
		t.Fatalf("runFsck: %v", err)
	}
	got := out.String()
	if !healthy {
		t.Fatalf("store with intact .ckpt.1 should stay bootable:\n%s", got)
	}
	if !strings.Contains(got, "checkpoint ledger-0.ckpt: CORRUPT") {
		t.Errorf("corrupt newest generation not reported:\n%s", got)
	}
	if !strings.Contains(got, "boot: checkpoint "+filepath.Join(dir, "ledger-0.ckpt.1")) {
		t.Errorf("fallback generation not chosen:\n%s", got)
	}
}

func TestFsckUnhealthyWhenNoIntactHistory(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, "ledger-0")
	// Compact so the journal no longer holds full history, then corrupt
	// the only checkpoint generation.
	j, err := db.OpenFileJournal(filepath.Join(dir, "ledger-0.wal"), true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.OpenWithCheckpoint(filepath.Join(dir, "ledger-0.ckpt"), j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(filepath.Join(dir, "ledger-0.ckpt")); err != nil {
		t.Fatal(err)
	}
	if err := j.(db.CompactableJournal).Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(tx *db.Tx) error { return tx.Put("kv", "e", []byte("5")) }); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for _, name := range []string{"ledger-0.ckpt", "ledger-0.ckpt.1"} {
		p := filepath.Join(dir, name)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xFF
		if err := os.WriteFile(p, b, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	var out strings.Builder
	healthy, err := runFsck(&out, dir)
	if err != nil {
		t.Fatalf("runFsck: %v", err)
	}
	got := out.String()
	if healthy {
		t.Fatalf("no intact history but fsck reported healthy:\n%s", got)
	}
	if !strings.Contains(got, "REFUSED") || !strings.Contains(got, "UNHEALTHY") {
		t.Errorf("missing refusal verdicts:\n%s", got)
	}
}

func TestFsckReportsStaleTmp(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, "ledger-0")
	if err := os.WriteFile(filepath.Join(dir, "ledger-0.ckpt.tmp"), []byte("partial"), 0o600); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := runFsck(&out, dir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "stale temp file ledger-0.ckpt.tmp") {
		t.Errorf("stale tmp not reported:\n%s", out.String())
	}
}

// TestFsckByteLedger: fsck prints each journal's entries and bytes by
// (table, op), and in either codec the ledger plus batch framing
// accounts for every byte of the journal.
func TestFsckByteLedger(t *testing.T) {
	for codec, framing := range map[string]func(batches int) int64{
		wire.CodecJSON: func(b int) int64 { return 2 * int64(b) },    // "[" "]" "\n" less one separator
		wire.CodecBin1: func(b int) int64 { return 8 + 10*int64(b) }, // file magic, record header + uvarint count
	} {
		t.Run(codec, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "usage.wal")
			j, err := db.OpenFileJournalCodecFS(db.OSFS(), path, false, codec)
			if err != nil {
				t.Fatal(err)
			}
			s, err := db.Open(j)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CreateTable("usage_spool"); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"a", "b", "c"} {
				if err := s.Update(func(tx *db.Tx) error { return tx.Put("usage_spool", k, []byte("value-"+k)) }); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Update(func(tx *db.Tx) error { return tx.Delete("usage_spool", "a") }); err != nil {
				t.Fatal(err)
			}
			s.Close()

			var out strings.Builder
			if _, err := runFsck(&out, dir); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				"usage_spool          put               3 entries",
				"usage_spool          del               1 entries",
				"usage_spool          mktable           1 entries",
				"(batch framing)                        5 batches",
			} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
			rep, err := db.VerifyJournal(db.OSFS(), path)
			if err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := framing(rep.Batches)
			for _, o := range rep.ByTableOp {
				sum += o.Bytes
			}
			if sum != fi.Size() || rep.GoodBytes != fi.Size() {
				t.Errorf("ledger + framing = %d B, intact prefix %d B, file %d B", sum, rep.GoodBytes, fi.Size())
			}
			if rep.ByTableOp[0].Op != db.OpPut {
				t.Errorf("ledger not largest first: %+v", rep.ByTableOp)
			}
		})
	}
}
